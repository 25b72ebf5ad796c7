//! Binary snapshots of the hopset store — the expensive artifact.
//!
//! The construction is the costly phase by design (the whole point of a
//! hopset is to pay it once); this module makes the result a shippable
//! artifact. The container framing comes from [`pgraph::snapshot`]
//! (DESIGN.md §11): the SoA columns of [`Hopset`] stream out verbatim and
//! load back with `read_exact` — no per-edge decoding — followed by one
//! structural validation pass (scale order, offset-table consistency, kind
//! tally, path-link bounds).
//!
//! Sections, in order: `us  `/`vs  ` (u32 endpoints), `wgts` (f64, or
//! u32 when quantized — see below), `scal` (u32), `kind`/`phas` (u8 each
//! — [`EdgeKind`] split into a code and a phase byte), `path` (u32,
//! [`Hopset::NO_PATH`] = none), `sstr` (u32, the `(scale, start)` offset
//! table interleaved), and `prec` — the memory-path arena as
//! length-prefixed records: `L` (u32), `L + 1` vertex ids, then `L` links
//! as (tag u32, weight f64) where tag `u32::MAX` is a base-graph edge and
//! anything else a hopset edge index, bounds-checked against the edge
//! count exactly like the text loader.
//!
//! ## Quantized weights (format v2, DESIGN.md §12)
//!
//! [`write_hopset_snapshot_quantized`] stores the weight column as `u32`
//! at half the bytes: `q = round(w / scale)` clamped to `1..=u32::MAX`
//! with `scale = w_max / u32::MAX`, decoded as `ŵ = q · scale` (absolute
//! error ≤ `scale / 2`). Quantization is **storage-only and opt-in**: the
//! default writer stays exact (`f64` bit patterns), nothing in the
//! compute path ever sees a quantized value unless a quantized file is
//! explicitly loaded, and the determinism contract (§5) is stated over
//! exact snapshots. Path-record link weights stay f64 either way.

use crate::path::{MemEdge, MemoryPath};
use crate::store::{EdgeKind, Hopset};
use pgraph::snapshot::{
    container_size, ContainerReader, ContainerWriter, ParamsBuf, ParamsReader, SectionDecl,
    SnapshotError,
};
use std::io::{Read, Write};
use std::path::Path;

/// Magic of the [`Hopset`] container.
pub const HOPSET_MAGIC: [u8; 8] = *b"PSSHOPST";

// v1: ne, np, tally[3] (5×u64). v2 appends weight_width u8 + qscale f64
// (qscale is 0 when weights are exact f64).
const PARAMS_BYTES: usize = 8 * 5 + 1 + 8;

/// Link tag meaning "base-graph edge" in `prec` records.
const LINK_BASE: u32 = u32::MAX;

fn corrupt(what: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt { what: what.into() }
}

fn kind_code(k: EdgeKind) -> (u8, u8) {
    match k {
        EdgeKind::Supercluster { phase } => (0, phase),
        EdgeKind::Interconnect { phase } => (1, phase),
        EdgeKind::Star => (2, 0),
    }
}

fn path_record_bytes(p: &MemoryPath) -> u64 {
    // L (u32) + (L + 1) vertex ids (u32) + L × (tag u32 + weight f64).
    8 + 16 * p.links.len() as u64
}

fn sections(h: &Hopset, weight_width: u32) -> Vec<SectionDecl> {
    let ne = h.len() as u64;
    let prec_bytes: u64 = h.paths.iter().map(path_record_bytes).sum();
    vec![
        SectionDecl {
            tag: *b"us  ",
            elem_size: 4,
            count: ne,
        },
        SectionDecl {
            tag: *b"vs  ",
            elem_size: 4,
            count: ne,
        },
        SectionDecl {
            tag: *b"wgts",
            elem_size: weight_width,
            count: ne,
        },
        SectionDecl {
            tag: *b"scal",
            elem_size: 4,
            count: ne,
        },
        SectionDecl {
            tag: *b"kind",
            elem_size: 1,
            count: ne,
        },
        SectionDecl {
            tag: *b"phas",
            elem_size: 1,
            count: ne,
        },
        SectionDecl {
            tag: *b"path",
            elem_size: 4,
            count: ne,
        },
        SectionDecl {
            tag: *b"sstr",
            elem_size: 4,
            count: 2 * h.scale_starts().len() as u64,
        },
        SectionDecl {
            tag: *b"prec",
            elem_size: 1,
            count: prec_bytes,
        },
    ]
}

/// Exact byte size [`write_hopset_snapshot`] will emit for `h`.
pub fn hopset_snapshot_size(h: &Hopset) -> u64 {
    container_size(PARAMS_BYTES, &sections(h, 8))
}

/// Exact byte size [`write_hopset_snapshot_quantized`] will emit for `h`.
pub fn hopset_snapshot_size_quantized(h: &Hopset) -> u64 {
    container_size(PARAMS_BYTES, &sections(h, 4))
}

/// The quantization step for `h`'s weight column: `w_max / u32::MAX`
/// (1.0 for an empty store, so the scale is always positive).
fn quantize_scale(ws: &[f64]) -> f64 {
    // xlint: allow(float-fold, sequential max is order-independent; no parallel chunking here)
    let wmax = ws.iter().copied().fold(0.0f64, f64::max);
    if wmax > 0.0 {
        wmax / u32::MAX as f64
    } else {
        1.0
    }
}

/// Write `h` as a binary snapshot (columns streamed verbatim; weights
/// exact f64 bit patterns — round-trips bit-identically).
pub fn write_hopset_snapshot(h: &Hopset, w: impl Write) -> Result<(), SnapshotError> {
    write_hopset_snapshot_with(h, w, false)
}

/// Write `h` with the weight column quantized to `u32` (half the weight
/// bytes; lossy — see the module docs for the rule and the error bound).
pub fn write_hopset_snapshot_quantized(h: &Hopset, w: impl Write) -> Result<(), SnapshotError> {
    write_hopset_snapshot_with(h, w, true)
}

fn write_hopset_snapshot_with(
    h: &Hopset,
    mut w: impl Write,
    quantize: bool,
) -> Result<(), SnapshotError> {
    let (ts, ti, tt) = h.kind_counts();
    let weight_width: u32 = if quantize { 4 } else { 8 };
    let qscale = if quantize {
        quantize_scale(h.ws())
    } else {
        0.0
    };
    let mut params = ParamsBuf::new();
    params
        .u64(h.len() as u64)
        .u64(h.paths.len() as u64)
        .u64(ts as u64)
        .u64(ti as u64)
        .u64(tt as u64);
    params.u8(weight_width as u8).f64(qscale);
    let mut cw = ContainerWriter::begin(
        &mut w,
        &HOPSET_MAGIC,
        params.as_slice(),
        sections(h, weight_width),
    )?;
    cw.col_u32(*b"us  ", h.us())?;
    cw.col_u32(*b"vs  ", h.vs())?;
    if quantize {
        let q: Vec<u32> = h
            .ws()
            .iter()
            .map(|&wv| ((wv / qscale).round() as u64).clamp(1, u32::MAX as u64) as u32)
            .collect();
        cw.col_u32(*b"wgts", &q)?;
    } else {
        cw.col_f64(*b"wgts", h.ws())?;
    }
    cw.col_u32(*b"scal", h.scales())?;
    let (kinds, phases): (Vec<u8>, Vec<u8>) = h.kinds().iter().map(|&k| kind_code(k)).unzip();
    cw.col_u8(*b"kind", &kinds)?;
    cw.col_u8(*b"phas", &phases)?;
    cw.col_u32(*b"path", h.path_ids())?;
    let sstr: Vec<u32> = h
        .scale_starts()
        .iter()
        .flat_map(|&(s, st)| [s, st])
        .collect();
    cw.col_u32(*b"sstr", &sstr)?;
    cw.raw(*b"prec", |out| {
        for p in &h.paths {
            out.write_all(&(p.links.len() as u32).to_le_bytes())?;
            for &v in &p.verts {
                out.write_all(&v.to_le_bytes())?;
            }
            for &(link, lw) in &p.links {
                let tag = match link {
                    MemEdge::Base => LINK_BASE,
                    MemEdge::Hop(i) => i,
                };
                out.write_all(&tag.to_le_bytes())?;
                out.write_all(&lw.to_bits().to_le_bytes())?;
            }
        }
        Ok(())
    })?;
    cw.finish()
}

/// Save `h` to a snapshot file.
pub fn save_hopset_snapshot(h: &Hopset, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_hopset_snapshot(h, &mut out)?;
    out.flush()?;
    Ok(())
}

fn read_u32(r: &mut dyn Read, region: &str) -> Result<u32, SnapshotError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            SnapshotError::Truncated {
                region: region.to_string(),
            }
        } else {
            SnapshotError::Io(e)
        }
    })?;
    Ok(u32::from_le_bytes(b))
}

fn read_f64(r: &mut dyn Read, region: &str) -> Result<f64, SnapshotError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            SnapshotError::Truncated {
                region: region.to_string(),
            }
        } else {
            SnapshotError::Io(e)
        }
    })?;
    Ok(f64::from_bits(u64::from_le_bytes(b)))
}

/// Load a hopset snapshot and validate every store invariant: scale order,
/// offset-table and kind-tally consistency, path-id referential integrity,
/// and — same rule as the text loader — hop links bounds-checked against
/// the edge count. Endpoint ids are *not* range-checked here (a hopset
/// container does not know `n`); the oracle loader cross-validates them.
pub fn read_hopset_snapshot(r: impl Read) -> Result<Hopset, SnapshotError> {
    let mut cr = ContainerReader::open(r, &HOPSET_MAGIC)?;
    let version = cr.version();
    let mut p = ParamsReader::new(cr.params());
    let ne = usize::try_from(p.u64()?).map_err(|_| corrupt("edge count overflows usize"))?;
    let np = usize::try_from(p.u64()?).map_err(|_| corrupt("path count overflows usize"))?;
    let tally = [p.u64()? as usize, p.u64()? as usize, p.u64()? as usize];

    // v1 always stored exact f64 weights; v2 records the width (+ scale).
    let (weight_width, qscale) = if version >= 2 {
        let ww = p.u8()?;
        let qs = p.f64()?;
        match ww {
            8 => {}
            4 if qs.is_finite() && qs > 0.0 => {}
            4 => return Err(corrupt(format!("quantized weights with bad scale {qs}"))),
            _ => {
                return Err(corrupt(format!(
                    "hopset weight width {ww} (expected 4 or 8)"
                )))
            }
        }
        (u32::from(ww), qs)
    } else {
        (8, 0.0)
    };

    let us = cr.col_u32(*b"us  ")?;
    let vs = cr.col_u32(*b"vs  ")?;
    let ws: Vec<f64> = if weight_width == 4 {
        cr.col_u32(*b"wgts")?
            .into_iter()
            .map(|q| q as f64 * qscale)
            .collect()
    } else {
        cr.col_f64(*b"wgts")?
    };
    let scales = cr.col_u32(*b"scal")?;
    let kind_codes = cr.col_u8(*b"kind")?;
    let phases = cr.col_u8(*b"phas")?;
    let path_ids = cr.col_u32(*b"path")?;
    let sstr = cr.col_u32(*b"sstr")?;

    for (name, len) in [
        ("us", us.len()),
        ("vs", vs.len()),
        ("wgts", ws.len()),
        ("scal", scales.len()),
        ("kind", kind_codes.len()),
        ("phas", phases.len()),
        ("path", path_ids.len()),
    ] {
        if len != ne {
            return Err(corrupt(format!(
                "column '{name}' has {len} entries for edge count {ne}"
            )));
        }
    }

    let mut kinds = Vec::with_capacity(ne.min(1 << 24));
    let mut recount = [0usize; 3];
    for i in 0..ne {
        let k = match (kind_codes[i], phases[i]) {
            (0, ph) => EdgeKind::Supercluster { phase: ph },
            (1, ph) => EdgeKind::Interconnect { phase: ph },
            (2, 0) => EdgeKind::Star,
            (2, ph) => return Err(corrupt(format!("star edge {i} has nonzero phase {ph}"))),
            (c, _) => return Err(corrupt(format!("edge {i} has unknown kind code {c}"))),
        };
        recount[kind_codes[i] as usize] += 1;
        kinds.push(k);
        if !(ws[i].is_finite() && ws[i] > 0.0) {
            return Err(corrupt(format!("edge {i} has invalid weight {}", ws[i])));
        }
        // The overlay CSR refuses self loops by panicking; a file that
        // holds one is corrupt.
        if us[i] == vs[i] {
            return Err(corrupt(format!(
                "edge {i} is a self loop at vertex {}",
                us[i]
            )));
        }
        if i > 0 && scales[i] < scales[i - 1] {
            return Err(corrupt(format!("scale column decreases at edge {i}")));
        }
        match path_ids[i] {
            Hopset::NO_PATH => {}
            pid if (pid as usize) < np => {}
            pid => {
                return Err(corrupt(format!(
                    "edge {i} references missing path {pid} (path count {np})"
                )))
            }
        }
    }
    if recount != tally {
        return Err(corrupt(format!(
            "kind tally {tally:?} does not match recount {recount:?}"
        )));
    }

    // The offset table must be exactly what re-scanning the scale column
    // produces: (scale, first index) per distinct scale, both ascending.
    if sstr.len() % 2 != 0 {
        return Err(corrupt("scale_starts section has odd length"));
    }
    let scale_starts: Vec<(u32, u32)> = sstr.chunks_exact(2).map(|c| (c[0], c[1])).collect();
    let mut expected: Vec<(u32, u32)> = Vec::new();
    for (i, &s) in scales.iter().enumerate() {
        if expected.last().map(|&(ls, _)| ls) != Some(s) {
            expected.push((s, i as u32));
        }
    }
    if scale_starts != expected {
        return Err(corrupt(
            "scale_starts table does not match the scale column",
        ));
    }

    let paths = cr.raw(*b"prec", |r| {
        let mut paths = Vec::with_capacity(np.min(1 << 22));
        for pi in 0..np {
            let links_len = read_u32(r, "prec")? as usize;
            let mut verts = Vec::with_capacity((links_len + 1).min(1 << 22));
            for _ in 0..=links_len {
                verts.push(read_u32(r, "prec")?);
            }
            let mut links = Vec::with_capacity(links_len.min(1 << 22));
            for _ in 0..links_len {
                let tag = read_u32(r, "prec")?;
                let lw = read_f64(r, "prec")?;
                let link = match tag {
                    LINK_BASE => MemEdge::Base,
                    idx if (idx as usize) < ne => MemEdge::Hop(idx),
                    idx => {
                        return Err(corrupt(format!(
                            "path {pi} hop link h{idx} out of range (edge count {ne})"
                        )))
                    }
                };
                if !(lw.is_finite() && lw >= 0.0) {
                    return Err(corrupt(format!("path {pi} has invalid link weight {lw}")));
                }
                links.push((link, lw));
            }
            paths.push(MemoryPath { verts, links });
        }
        Ok(paths)
    })?;

    Ok(Hopset::from_columns(
        us,
        vs,
        ws,
        scales,
        kinds,
        path_ids,
        scale_starts,
        recount,
        paths,
    ))
}

/// Load a hopset snapshot from a file path.
pub fn load_hopset_snapshot(path: impl AsRef<Path>) -> Result<Hopset, SnapshotError> {
    read_hopset_snapshot(std::io::BufReader::new(std::fs::File::open(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi_scale::{build_hopset, BuildOptions};
    use crate::params::{HopsetParams, ParamMode};
    use crate::store::HopsetEdge;
    use pgraph::gen;

    fn sample_hopset(record_paths: bool) -> Hopset {
        let g = gen::clique_chain(4, 6, 2.0);
        let p = HopsetParams::new(
            g.num_vertices(),
            0.25,
            4,
            0.3,
            ParamMode::Practical,
            g.aspect_ratio_bound(),
            None,
        )
        .unwrap();
        build_hopset(&g, &p, BuildOptions { record_paths }).hopset
    }

    fn roundtrip(h: &Hopset) -> Hopset {
        let mut buf = Vec::new();
        write_hopset_snapshot(h, &mut buf).unwrap();
        assert_eq!(buf.len() as u64, hopset_snapshot_size(h));
        read_hopset_snapshot(buf.as_slice()).unwrap()
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        for record_paths in [false, true] {
            let h = sample_hopset(record_paths);
            assert!(!h.is_empty());
            let h2 = roundtrip(&h);
            assert_eq!(h.len(), h2.len());
            assert_eq!(h.us(), h2.us());
            assert_eq!(h.vs(), h2.vs());
            assert_eq!(h.scales(), h2.scales());
            assert_eq!(h.kinds(), h2.kinds());
            assert_eq!(h.path_ids(), h2.path_ids());
            assert_eq!(h.scale_starts(), h2.scale_starts());
            assert_eq!(h.kind_counts(), h2.kind_counts());
            for (a, b) in h.ws().iter().zip(h2.ws()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(h.paths, h2.paths);
            assert_eq!(h.all_paths_recorded(), h2.all_paths_recorded());
        }
    }

    #[test]
    fn empty_roundtrip() {
        let h2 = roundtrip(&Hopset::new());
        assert!(h2.is_empty());
        assert!(h2.paths.is_empty());
    }

    #[test]
    fn quantized_roundtrip_is_structurally_identical_and_weights_close() {
        let h = sample_hopset(true);
        assert!(!h.is_empty());
        let mut buf = Vec::new();
        write_hopset_snapshot_quantized(&h, &mut buf).unwrap();
        assert_eq!(buf.len() as u64, hopset_snapshot_size_quantized(&h));
        assert!(
            hopset_snapshot_size_quantized(&h) < hopset_snapshot_size(&h),
            "u32 weights must shrink the file"
        );
        let h2 = read_hopset_snapshot(buf.as_slice()).unwrap();
        // Everything except the weight column is exact.
        assert_eq!(h.us(), h2.us());
        assert_eq!(h.vs(), h2.vs());
        assert_eq!(h.scales(), h2.scales());
        assert_eq!(h.kinds(), h2.kinds());
        assert_eq!(h.path_ids(), h2.path_ids());
        assert_eq!(h.scale_starts(), h2.scale_starts());
        assert_eq!(h.paths, h2.paths);
        // Weights reconstruct within half a quantization step.
        let wmax = h.ws().iter().copied().fold(0.0f64, f64::max);
        let step = wmax / u32::MAX as f64;
        for (a, b) in h.ws().iter().zip(h2.ws()) {
            assert!(
                (a - b).abs() <= step,
                "weight {a} decoded as {b} (step {step})"
            );
            assert!(*b > 0.0, "decoded weight must stay positive");
        }
    }

    #[test]
    fn v1_hopset_snapshots_still_load() {
        // A genuine version-1 file: 40-byte params, f64 weights.
        let h = sample_hopset(false);
        let (ts, ti, tt) = h.kind_counts();
        let mut params = ParamsBuf::new();
        params
            .u64(h.len() as u64)
            .u64(h.paths.len() as u64)
            .u64(ts as u64)
            .u64(ti as u64)
            .u64(tt as u64);
        let mut buf = Vec::new();
        let mut cw = ContainerWriter::begin_with_version(
            &mut buf,
            &HOPSET_MAGIC,
            1,
            params.as_slice(),
            sections(&h, 8),
        )
        .unwrap();
        cw.col_u32(*b"us  ", h.us()).unwrap();
        cw.col_u32(*b"vs  ", h.vs()).unwrap();
        cw.col_f64(*b"wgts", h.ws()).unwrap();
        cw.col_u32(*b"scal", h.scales()).unwrap();
        let (kinds, phases): (Vec<u8>, Vec<u8>) = h.kinds().iter().map(|&k| kind_code(k)).unzip();
        cw.col_u8(*b"kind", &kinds).unwrap();
        cw.col_u8(*b"phas", &phases).unwrap();
        cw.col_u32(*b"path", h.path_ids()).unwrap();
        let sstr: Vec<u32> = h
            .scale_starts()
            .iter()
            .flat_map(|&(s, st)| [s, st])
            .collect();
        cw.col_u32(*b"sstr", &sstr).unwrap();
        cw.raw(*b"prec", |_| Ok(())).unwrap(); // no paths recorded
        cw.finish().unwrap();

        let h2 = read_hopset_snapshot(buf.as_slice()).unwrap();
        assert_eq!(h.us(), h2.us());
        assert_eq!(h.scale_starts(), h2.scale_starts());
        for (a, b) in h.ws().iter().zip(h2.ws()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn rejects_out_of_range_hop_link() {
        // Same satellite rule as the text loader: a path link naming a
        // hopset edge index past the edge count must be a typed error.
        let mut h = Hopset::new();
        let pid = h.push_path(MemoryPath {
            verts: vec![0, 1],
            links: vec![(MemEdge::Hop(999), 1.0)],
        });
        h.push(HopsetEdge {
            u: 0,
            v: 1,
            w: 2.0,
            scale: 3,
            kind: EdgeKind::Interconnect { phase: 0 },
            path: Some(pid),
        });
        let mut buf = Vec::new();
        write_hopset_snapshot(&h, &mut buf).unwrap();
        let err = read_hopset_snapshot(buf.as_slice()).unwrap_err();
        match err {
            SnapshotError::Corrupt { what } => {
                assert!(
                    what.contains("h999") && what.contains("out of range"),
                    "got: {what}"
                );
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn rejects_wrong_magic_and_version_and_checksum() {
        let h = sample_hopset(false);
        let mut buf = Vec::new();
        write_hopset_snapshot(&h, &mut buf).unwrap();

        let mut bad = buf.clone();
        bad[0] = b'Z';
        assert!(matches!(
            read_hopset_snapshot(bad.as_slice()),
            Err(SnapshotError::BadMagic { .. })
        ));

        let mut bad = buf.clone();
        bad[8..12].copy_from_slice(&7u32.to_le_bytes());
        assert!(matches!(
            read_hopset_snapshot(bad.as_slice()),
            Err(SnapshotError::UnsupportedVersion { found: 7, .. })
        ));

        let mut bad = buf.clone();
        bad[24] ^= 0x80;
        assert!(matches!(
            read_hopset_snapshot(bad.as_slice()),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));

        assert!(matches!(
            read_hopset_snapshot(&buf[..buf.len() - 5]),
            Err(SnapshotError::Truncated { .. })
        ));
    }

    #[test]
    fn rejects_dangling_path_id() {
        let mut h = Hopset::new();
        h.push(HopsetEdge {
            u: 0,
            v: 1,
            w: 2.0,
            scale: 3,
            kind: EdgeKind::Star,
            path: Some(5), // no such path
        });
        let mut buf = Vec::new();
        write_hopset_snapshot(&h, &mut buf).unwrap();
        assert!(matches!(
            read_hopset_snapshot(buf.as_slice()),
            Err(SnapshotError::Corrupt { .. })
        ));
    }
}
