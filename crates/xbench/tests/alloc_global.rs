//! The process-wide live-byte count behind `repro memory` and the phase
//! collector's `net_bytes`, checked exactly. This binary holds one test,
//! so no concurrently running test allocates or frees while it reads the
//! global counters.

use xbench::alloc::{current_bytes, peak_bytes};

#[test]
fn global_live_bytes_rise_and_fall_with_a_block() {
    let live0 = current_bytes();
    let peak0 = peak_bytes();
    let v: Vec<u64> = vec![0; 1 << 16]; // 512 KiB
    std::hint::black_box(&v);
    let live1 = current_bytes();
    assert!(
        live1 >= live0 + (1 << 19),
        "512 KiB allocation must show up in live bytes ({live0} -> {live1})"
    );
    let peak1 = peak_bytes();
    assert!(peak1 >= live1, "peak {peak1} below the live count {live1}");
    assert!(peak1 >= peak0, "absolute peak never decreases");
    drop(v);
    let live2 = current_bytes();
    assert!(
        live2 + (1 << 19) <= live1,
        "dealloc must subtract the block ({live1} -> {live2})"
    );
    assert!(peak_bytes() >= peak1, "absolute peak never decreases");
}
