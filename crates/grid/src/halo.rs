//! Halo (ghost-layer) packing and unpacking: one strip codec for 2D and 3D.
//!
//! Exchange is staged per axis, mirroring the paper's face-neighbour-only
//! communication: the x stage moves strips spanning the interior of the other
//! axes; the y stage spans the *full padded* x range (whose ghosts are fresh
//! after the x stage), and the z stage spans the full padded x and y ranges.
//! Corner and edge ghosts are therefore filled transitively without diagonal
//! messages.
//!
//! Conventions: [`pack`]`(tile_face)` extracts the interior strip adjacent to
//! the tile's own face; [`unpack`]`(tile_face)` writes a received strip into
//! the ghost band beyond that face. A tile's ghost band beyond face `f`
//! receives the strip its neighbour across `f` packed with face
//! `f.opposite()`:
//!
//! ```text
//! ghost(tile, f)  <-  pack(neighbor(tile, f), f.opposite())
//! ```
//!
//! A strip is a box of x-row segments, visited z outermost and y inside it,
//! so its elements come in storage order.

use crate::face::Face;
use crate::padded::PaddedRows;

/// The strip of face `f`, `w` deep, of a tile with interior extents `n`, as
/// a `(start, len)` range per axis: the `w`-deep band along the face's own
/// axis — inside the face, or beyond it in the ghosts if `ghost` — the span
/// widened by `±w` along lower axes, whose ghosts the earlier stages filled,
/// and the interior along higher axes.
#[inline]
fn strip_box(n: [usize; 3], f: Face, w: usize, ghost: bool) -> [(isize, usize); 3] {
    let wi = w as isize;
    let wide = |len: usize| (-wi, len + 2 * w);
    let inner = |len: usize| (0, len);
    // the band starts w before the face when it lies on the face's low side:
    // interior strips of high faces, ghost strips of low ones
    let low = f.sign() < 0;
    let band = |len: usize| {
        let face_at = if low { 0 } else { len as isize };
        (face_at - if ghost == low { wi } else { 0 }, w)
    };
    match f.axis() {
        0 => [band(n[0]), inner(n[1]), inner(n[2])],
        1 => [wide(n[0]), band(n[1]), inner(n[2])],
        _ => [wide(n[0]), wide(n[1]), band(n[2])],
    }
}

#[inline]
fn box_len(s: &[(isize, usize); 3]) -> usize {
    s.iter().map(|&(_, len)| len).product()
}

/// Number of elements a width-`w` message for face `f` of a tile with
/// interior extents `n` (`[nx, ny]` or `[nx, ny, nz]`) contains, per field.
pub fn message_len(n: &[usize], f: Face, w: usize) -> usize {
    let mut n3 = [1; 3];
    n3[..n.len()].copy_from_slice(n);
    box_len(&strip_box(n3, f, w, false))
}

// ---------------------------------------------------------------------------
// Tight copy kernels.
//
// The pack/unpack loops below avoid two per-row costs of the naive
// `extend_from_slice` formulation: `Vec` growth/length bookkeeping (buffers
// are sized once up front and filled through subslices) and opaque-length
// `memcpy` calls for the narrow x-face segments (widths 1–4 dispatch to
// const-generic kernels whose copy length is known to the compiler).
// ---------------------------------------------------------------------------

/// Copies `out.len() / W` segments of length `W` from `src`, starting at
/// `base0` and advancing `stride` per segment, into consecutive chunks of
/// `out`.
#[inline]
fn gather_rows_fixed<T: Copy, const W: usize>(
    src: &[T],
    base0: usize,
    stride: usize,
    out: &mut [T],
) {
    let mut base = base0;
    for chunk in out.chunks_exact_mut(W) {
        chunk.copy_from_slice(&src[base..base + W]);
        base += stride;
    }
}

/// Strided gather: `rows` segments of length `seg` into consecutive chunks
/// of `out`.
#[inline]
fn gather_rows<T: Copy>(src: &[T], base0: usize, stride: usize, seg: usize, out: &mut [T]) {
    match seg {
        1 => gather_rows_fixed::<T, 1>(src, base0, stride, out),
        2 => gather_rows_fixed::<T, 2>(src, base0, stride, out),
        3 => gather_rows_fixed::<T, 3>(src, base0, stride, out),
        4 => gather_rows_fixed::<T, 4>(src, base0, stride, out),
        _ => {
            let mut base = base0;
            for chunk in out.chunks_exact_mut(seg) {
                chunk.copy_from_slice(&src[base..base + seg]);
                base += stride;
            }
        }
    }
}

/// Scatter counterpart of [`gather_rows_fixed`].
#[inline]
fn scatter_rows_fixed<T: Copy, const W: usize>(
    dst: &mut [T],
    base0: usize,
    stride: usize,
    data: &[T],
) {
    let mut base = base0;
    for chunk in data.chunks_exact(W) {
        dst[base..base + W].copy_from_slice(chunk);
        base += stride;
    }
}

/// Strided scatter: consecutive `seg`-chunks of `data` into rows of `dst`.
#[inline]
fn scatter_rows<T: Copy>(dst: &mut [T], base0: usize, stride: usize, seg: usize, data: &[T]) {
    match seg {
        1 => scatter_rows_fixed::<T, 1>(dst, base0, stride, data),
        2 => scatter_rows_fixed::<T, 2>(dst, base0, stride, data),
        3 => scatter_rows_fixed::<T, 3>(dst, base0, stride, data),
        4 => scatter_rows_fixed::<T, 4>(dst, base0, stride, data),
        _ => {
            let mut base = base0;
            for chunk in data.chunks_exact(seg) {
                dst[base..base + seg].copy_from_slice(chunk);
                base += stride;
            }
        }
    }
}

/// Packs the width-`w` interior strip adjacent to face `f`, appending to the
/// reusable buffer `out` (the buffer is grown once to its final size; a
/// recycled buffer of the right length is reused without reallocation).
pub fn pack<T: Copy + Default>(g: &impl PaddedRows<T>, f: Face, w: usize, out: &mut Vec<T>) {
    let l = g.layout();
    debug_assert!(w <= l.halo[f.axis()], "exchange width exceeds halo");
    let s = strip_box(l.n, f, w, false);
    let [(i0, span), (j0, rows), (k0, planes)] = s;
    let start = out.len();
    out.resize(start + box_len(&s), T::default());
    let raw = g.raw();
    let (len, mut base, mut at) = (rows * span, l.idx(i0, j0, k0), start);
    for _ in 0..planes {
        let plane = &mut out[at..at + len];
        if span == l.stride {
            // the plane's rows are back-to-back in storage: one straight copy
            plane.copy_from_slice(&raw[base..base + len]);
        } else {
            gather_rows(raw, base, l.stride, span, plane);
        }
        (base, at) = (base + l.plane_stride(), at + len);
    }
}

/// Writes a received strip into the ghost band beyond face `f`, consuming
/// [`message_len`] elements from the front of `data`. Returns the number of
/// elements consumed.
pub fn unpack<T: Copy>(g: &mut impl PaddedRows<T>, f: Face, w: usize, data: &[T]) -> usize {
    let l = g.layout();
    debug_assert!(w <= l.halo[f.axis()], "exchange width exceeds halo");
    let s = strip_box(l.n, f, w, true);
    let [(i0, span), (j0, rows), (k0, planes)] = s;
    let raw = g.raw_mut();
    let (len, mut base, mut at) = (rows * span, l.idx(i0, j0, k0), 0);
    for _ in 0..planes {
        let plane = &data[at..at + len];
        if span == l.stride {
            raw[base..base + len].copy_from_slice(plane);
        } else {
            scatter_rows(raw, base, l.stride, span, plane);
        }
        (base, at) = (base + l.plane_stride(), at + len);
    }
    at
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::Decomp;
    use crate::face::{Face2, Face3};
    use crate::padded::{PaddedGrid2, PaddedGrid3};

    /// Builds tiles of a decomposed global field, runs the staged exchange
    /// and checks every ghost value matches the global field.
    #[test]
    fn staged_exchange_fills_all_ghosts_including_corners() {
        let (nx, ny, w) = (12usize, 10usize, 2usize);
        let global = |x: isize, y: isize| -> f64 {
            // wrap both axes (fully periodic domain)
            let xm = x.rem_euclid(nx as isize);
            let ym = y.rem_euclid(ny as isize);
            (xm * 1000 + ym) as f64
        };
        let d = Decomp::with_periodicity([nx, ny], [2, 2], [true, true]);
        // create tiles with interiors from the global function, ghosts poisoned
        let mut tiles: Vec<PaddedGrid2<f64>> = (0..d.tiles())
            .map(|id| {
                let [x, y] = d.tile_box(id).ext;
                PaddedGrid2::from_fn(x.len, y.len, w, |i, j| {
                    let inside = i >= 0 && j >= 0 && (i as usize) < x.len && (j as usize) < y.len;
                    if inside {
                        global(x.start as isize + i, y.start as isize + j)
                    } else {
                        f64::NAN
                    }
                })
            })
            .collect();

        // Staged exchange: stage 0 (x faces) then stage 1 (y faces).
        for stage in 0..2 {
            let mut msgs: Vec<(usize, Face2, Vec<f64>)> = Vec::new();
            for id in 0..d.tiles() {
                for f in Face::of_rank(2)
                    .iter()
                    .copied()
                    .filter(|f| f.stage() == stage)
                {
                    if let Some(nb) = d.neighbor(id, f) {
                        // tile `id` receives into ghost(f) what `nb` packs with f.opposite()
                        let mut buf = Vec::new();
                        pack(&tiles[nb], f.opposite(), w, &mut buf);
                        msgs.push((id, f, buf));
                    }
                }
            }
            for (id, f, buf) in msgs {
                unpack(&mut tiles[id], f, w, &buf);
            }
        }

        // Every padded node of every tile must now match the global function.
        for (id, t) in tiles.iter().enumerate() {
            let [x, y] = d.tile_box(id).ext;
            let wi = w as isize;
            for j in -wi..(y.len as isize + wi) {
                for i in -wi..(x.len as isize + wi) {
                    let want = global(x.start as isize + i, y.start as isize + j);
                    let got = t[(i, j)];
                    assert!(
                        (got - want).abs() < 1e-12,
                        "tile {id} ghost ({i},{j}): got {got}, want {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn pack_unpack_roundtrip_2d() {
        let g = PaddedGrid2::from_fn(6, 5, 2, |i, j| (i * 37 + j) as f64);
        let mut recv = PaddedGrid2::new(6, 5, 2, 0.0f64);
        for &f in Face::of_rank(2) {
            let mut buf = Vec::new();
            pack(&g, f.opposite(), 2, &mut buf);
            assert_eq!(buf.len(), message_len(&[6, 5], f, 2));
            let used = unpack(&mut recv, f, 2, &buf);
            assert_eq!(used, buf.len());
        }
        // West ghost of recv = East interior strip of g
        assert_eq!(recv[(-1, 0)], g[(5, 0)]);
        assert_eq!(recv[(-2, 4)], g[(4, 4)]);
        // North ghost of recv = South interior strip of g (row 0..2)
        assert_eq!(recv[(0, 5)], g[(0, 0)]);
        assert_eq!(recv[(3, 6)], g[(3, 1)]);
    }

    #[test]
    fn pack_unpack_roundtrip_3d() {
        let g = PaddedGrid3::from_fn(4, 5, 6, 2, |i, j, k| (i + 10 * j + 100 * k) as f64);
        let mut recv = PaddedGrid3::new(4, 5, 6, 2, 0.0f64);
        for &f in Face::of_rank(3) {
            let mut buf = Vec::new();
            pack(&g, f.opposite(), 2, &mut buf);
            assert_eq!(buf.len(), message_len(&[4, 5, 6], f, 2));
            let used = unpack(&mut recv, f, 2, &buf);
            assert_eq!(used, buf.len());
        }
        // Down ghost = Up interior strip
        assert_eq!(recv[(0, 0, -1)], g[(0, 0, 5)]);
        assert_eq!(recv[(2, 3, -2)], g[(2, 3, 4)]);
        // Up ghost = Down interior strip
        assert_eq!(recv[(1, 2, 6)], g[(1, 2, 0)]);
    }

    /// Interior (`ghost = false`) or ghost (`ghost = true`) band of width `w`
    /// next to the low (`sign < 0`) or high side of an axis of `n` nodes.
    fn ref_band(n: usize, sign: isize, w: usize, ghost: bool) -> std::ops::Range<isize> {
        let (n, w) = (n as isize, w as isize);
        match (sign < 0, ghost) {
            (true, false) => 0..w,
            (true, true) => -w..0,
            (false, false) => n - w..n,
            (false, true) => n..n + w,
        }
    }

    /// The strip box of a face on `axis` (low side if `sign < 0`), one
    /// range per axis of `n`: the band along the face's axis, `±w` wider
    /// along lower axes (ghosts the earlier stages filled), the interior
    /// along higher ones.
    fn ref_box(
        n: &[usize],
        axis: usize,
        sign: isize,
        w: usize,
        ghost: bool,
    ) -> Vec<std::ops::Range<isize>> {
        let wi = w as isize;
        (0..n.len())
            .map(|b| match b.cmp(&axis) {
                std::cmp::Ordering::Less => -wi..n[b] as isize + wi,
                std::cmp::Ordering::Equal => ref_band(n[b], sign, w, ghost),
                std::cmp::Ordering::Greater => 0..n[b] as isize,
            })
            .collect()
    }

    fn ref_box2(
        g: &PaddedGrid2<f64>,
        f: Face2,
        w: usize,
        ghost: bool,
    ) -> [std::ops::Range<isize>; 2] {
        let r = ref_box(&[g.nx(), g.ny()], f.axis(), f.sign(), w, ghost);
        [r[0].clone(), r[1].clone()]
    }

    fn ref_box3(
        g: &PaddedGrid3<f64>,
        f: Face3,
        w: usize,
        ghost: bool,
    ) -> [std::ops::Range<isize>; 3] {
        let r = ref_box(&[g.nx(), g.ny(), g.nz()], f.axis(), f.sign(), w, ghost);
        [r[0].clone(), r[1].clone(), r[2].clone()]
    }

    /// Per-cell reference pack: every node of the strip box, x fastest.
    fn ref_pack2(g: &PaddedGrid2<f64>, f: Face2, w: usize) -> Vec<f64> {
        let [xs, ys] = ref_box2(g, f, w, false);
        ys.flat_map(|j| xs.clone().map(move |i| (i, j)))
            .map(|ij| g[ij])
            .collect()
    }

    /// Per-cell reference unpack into the ghost box beyond `f`.
    fn ref_unpack2(g: &mut PaddedGrid2<f64>, f: Face2, w: usize, data: &[f64]) {
        let [xs, ys] = ref_box2(g, f, w, true);
        let cells = ys.flat_map(|j| xs.clone().map(move |i| (i, j)));
        for (ij, &v) in cells.zip(data) {
            g[ij] = v;
        }
    }

    fn ref_pack3(g: &PaddedGrid3<f64>, f: Face3, w: usize) -> Vec<f64> {
        let [xs, ys, zs] = ref_box3(g, f, w, false);
        let mut out = Vec::new();
        for k in zs {
            for j in ys.clone() {
                for i in xs.clone() {
                    out.push(g[(i, j, k)]);
                }
            }
        }
        out
    }

    fn ref_unpack3(g: &mut PaddedGrid3<f64>, f: Face3, w: usize, data: &[f64]) {
        let [xs, ys, zs] = ref_box3(g, f, w, true);
        let mut data = data.iter();
        for k in zs {
            for j in ys.clone() {
                for i in xs.clone() {
                    g[(i, j, k)] = *data.next().expect("reference strip too short");
                }
            }
        }
    }

    /// The codec's strip of `f` (appended after a sentinel it must keep),
    /// checked against its own message length.
    fn codec_pack2(g: &PaddedGrid2<f64>, f: Face2, w: usize) -> Vec<f64> {
        let mut out = vec![-7.0];
        pack(g, f, w, &mut out);
        assert_eq!(out[0], -7.0, "pack overwrote what the buffer held");
        assert_eq!(out.len() - 1, message_len(&[g.nx(), g.ny()], f, w));
        out.split_off(1)
    }

    fn codec_pack3(g: &PaddedGrid3<f64>, f: Face3, w: usize) -> Vec<f64> {
        let mut out = vec![-7.0];
        pack(g, f, w, &mut out);
        assert_eq!(out[0], -7.0, "pack overwrote what the buffer held");
        assert_eq!(out.len() - 1, message_len(&[g.nx(), g.ny(), g.nz()], f, w));
        out.split_off(1)
    }

    /// Distinct values for a strip of `len` (and a tail the unpack must not
    /// read).
    fn strip_values(len: usize) -> Vec<f64> {
        (0..len + 3).map(|v| 1e6 + v as f64).collect()
    }

    #[test]
    fn codec_matches_per_cell_reference_2d() {
        use crate::array::StridePolicy;
        // 7 wide: the tight stride; 505 wide: 507..513-element rows, each
        // within 64 bytes of a page multiple, so the Appendix-E pad applies
        for (nx, ny, policy) in [
            (7, 5, StridePolicy::Tight),
            (505, 3, StridePolicy::AvoidPageMultiples),
        ] {
            for halo in 1..=4 {
                let mut g = PaddedGrid2::with_policy(nx, ny, halo, 0.0, policy);
                let h = halo as isize;
                for j in -h..ny as isize + h {
                    for i in -h..nx as isize + h {
                        g[(i, j)] = (i * 1000 + j) as f64;
                    }
                }
                let padded = g.stride() > nx + 2 * halo;
                assert_eq!(
                    padded,
                    policy != StridePolicy::Tight,
                    "{nx}x{ny} halo {halo}"
                );
                for w in 1..=halo {
                    for &f in Face::of_rank(2) {
                        let at = format!("{nx}x{ny} halo {halo} w {w} {f:?}");
                        assert_eq!(codec_pack2(&g, f, w), ref_pack2(&g, f, w), "pack {at}");
                        let data = strip_values(message_len(&[nx, ny], f, w));
                        let (mut got, mut want) = (g.clone(), g.clone());
                        assert_eq!(unpack(&mut got, f, w, &data), data.len() - 3, "{at}");
                        ref_unpack2(&mut want, f, w, &data);
                        assert!(got == want, "unpack {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn codec_matches_per_cell_reference_3d() {
        let (nx, ny, nz) = (5usize, 4usize, 6usize);
        for halo in 1..=4 {
            let g = PaddedGrid3::from_fn(nx, ny, nz, halo, |i, j, k| {
                (i * 10_000 + j * 100 + k) as f64
            });
            for w in 1..=halo {
                for &f in Face::of_rank(3) {
                    let at = format!("halo {halo} w {w} {f:?}");
                    assert_eq!(codec_pack3(&g, f, w), ref_pack3(&g, f, w), "pack {at}");
                    let data = strip_values(message_len(&[nx, ny, nz], f, w));
                    let (mut got, mut want) = (g.clone(), g.clone());
                    assert_eq!(unpack(&mut got, f, w, &data), data.len() - 3, "{at}");
                    ref_unpack3(&mut want, f, w, &data);
                    assert!(got == want, "unpack {at}");
                }
            }
        }
    }

    #[test]
    fn message_lengths() {
        assert_eq!(message_len(&[10, 8], Face2::West, 2), 16);
        assert_eq!(message_len(&[10, 8], Face2::North, 2), 2 * 14);
        assert_eq!(message_len(&[4, 5, 6], Face3::East, 1), 30);
        assert_eq!(message_len(&[4, 5, 6], Face3::South, 1), 6 * 6);
        assert_eq!(message_len(&[4, 5, 6], Face3::Up, 1), 6 * 7);
    }
}
