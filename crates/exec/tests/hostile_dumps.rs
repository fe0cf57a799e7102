//! Hostile dump bytes. Dumps arrive over sockets (`Init`, `Rollback` and
//! `SegDone` checkpoints) and from disk, and their FNV trailer is a checksum,
//! not a MAC: a mutated dump can simply be re-sealed. Whatever the bytes, the
//! decoder must answer with a typed `DumpError` — never a panic or an abort,
//! and never a reservation larger than the input, which this binary's
//! allocator measures on the decoding thread.

use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use subsonic_exec::checkpoint::{dump_tile, restore_tile};
use subsonic_exec::{Problem2, Problem3};
use subsonic_grid::{Geometry2, Geometry3};
use subsonic_solvers::{
    FiniteDifference2, FiniteDifference3, FluidParams, LatticeBoltzmann2, LatticeBoltzmann3,
    TileState2, TileState3,
};

thread_local! {
    /// Largest single allocation requested while measuring (`None`: not
    /// measuring on this thread).
    static PEAK: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Allocations beyond this are refused outright while measuring, so a
/// decoder that trusts a hostile header aborts instead of taking the host's
/// memory.
const REFUSE_ABOVE: usize = 64 << 20;

/// Records `size` if this thread is measuring; says whether to serve it.
fn admit(size: usize) -> bool {
    PEAK.try_with(|p| match p.get() {
        Some(peak) => {
            p.set(Some(peak.max(size)));
            size <= REFUSE_ABOVE
        }
        None => true,
    })
    .unwrap_or(true)
}

struct Measured;

// SAFETY: every call forwards unchanged to `System`, except that a refused
// request returns null, which `GlobalAlloc` allows for any allocation.
unsafe impl GlobalAlloc for Measured {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if admit(layout.size()) {
            System.alloc(layout)
        } else {
            std::ptr::null_mut()
        }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if admit(layout.size()) {
            System.alloc_zeroed(layout)
        } else {
            std::ptr::null_mut()
        }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if admit(new_size) {
            System.realloc(ptr, layout, new_size)
        } else {
            std::ptr::null_mut()
        }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Measured = Measured;

/// Decodes `bytes` as a tile of `rank`; returns whether that succeeded and
/// the largest single allocation the attempt requested.
fn decode(rank: usize, bytes: &[u8]) -> (bool, usize) {
    PEAK.with(|p| p.set(Some(0)));
    let ok = match rank {
        2 => restore_tile::<TileState2>(bytes).is_ok(),
        _ => restore_tile::<TileState3>(bytes).is_ok(),
    };
    (ok, PEAK.with(|p| p.take()).unwrap_or(0))
}

/// `len` pseudo-random bytes from `seed` (splitmix64).
fn noise(mut seed: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|_| {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

/// Appends the dump trailer: 64-bit FNV-1a over the payload.
fn seal(mut payload: Vec<u8>) -> Vec<u8> {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in &payload {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    payload.extend_from_slice(&h.to_le_bytes());
    payload
}

/// A valid dump of a small LB or FD tile of `rank`, unsealed, and the
/// `(offset, width)` of each header field that sizes an allocation: every
/// extent, the halo and the population count.
fn sample(rank: usize, lbm: bool) -> (Vec<u8>, Vec<(usize, usize)>) {
    let mut params = FluidParams::lattice_units(0.05);
    params.body_force[0] = 1e-5;
    let (bytes, padded, pops) = if rank == 2 {
        let p = Problem2::new(Geometry2::channel(16, 12, 2), 1, 1, params);
        let t = if lbm {
            p.make_tile(&LatticeBoltzmann2, 0)
        } else {
            p.make_tile(&FiniteDifference2, 0)
        };
        let pad = 2 * t.halo();
        (dump_tile(&t), vec![t.nx() + pad, t.ny() + pad], t.f.len())
    } else {
        let p = Problem3::new(Geometry3::duct(8, 6, 6, 2), 1, 1, 1, params);
        let t = if lbm {
            p.make_tile(&LatticeBoltzmann3, 0)
        } else {
            p.make_tile(&FiniteDifference3, 0)
        };
        let pad = 2 * t.halo();
        let padded = vec![t.nx() + pad, t.ny() + pad, t.nz() + pad];
        (dump_tile(&t), padded, t.f.len())
    };
    let cells: usize = padded.iter().product();
    // magic, version, rank, step | extents, halo | offsets, 12 parameters
    let extents = 24;
    let halo = extents + 8 * rank;
    let body = halo + 8 + 8 * rank + 12 * 8;
    let nf = body + cells + (rank + 1) * 8 * cells;
    assert_eq!(
        bytes[nf..nf + 4],
        (pops as u32).to_le_bytes(),
        "layout drifted"
    );
    let mut fields: Vec<(usize, usize)> = (0..rank).map(|i| (extents + 8 * i, 8)).collect();
    fields.extend([(halo, 8), (nf, 4)]);
    (bytes[..bytes.len() - 8].to_vec(), fields)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, and arbitrary bytes behind a valid magic, version
    /// and rank with a valid seal.
    #[test]
    fn arbitrary_bytes_fail_typed_within_their_own_size(
        seed in any::<u64>(),
        len in 0usize..1024,
        rank in 2usize..4,
        sealed in any::<bool>(),
    ) {
        let mut bytes = noise(seed, len);
        if sealed {
            let mut payload = 0x5355_4253_4f4e_4943u64.to_le_bytes().to_vec();
            payload.extend_from_slice(&2u32.to_le_bytes());
            payload.extend_from_slice(&(rank as u32).to_le_bytes());
            payload.append(&mut bytes);
            bytes = seal(payload);
        }
        for r in [2, 3] {
            let (ok, peak) = decode(r, &bytes);
            prop_assert!(!ok, "{} noise bytes decoded as a {r}D tile", bytes.len());
            prop_assert!(peak <= bytes.len(), "{peak} B reserved for {} B of input", bytes.len());
        }
    }

    /// A valid dump of either rank and solver family with one sizing header
    /// field rewritten — at random, nudged, or to a power of two — and
    /// re-sealed so the checksum passes.
    #[test]
    fn resealed_header_mutations_fail_typed_within_their_own_size(
        rank in 2usize..4,
        lbm in any::<bool>(),
        field in 0usize..5,
        value in any::<u64>(),
        mode in 0usize..4,
    ) {
        let (mut payload, fields) = sample(rank, lbm);
        let (at, width) = fields[field % fields.len()];
        let mut raw = [0u8; 8];
        raw[..width].copy_from_slice(&payload[at..at + width]);
        let old = u64::from_le_bytes(raw);
        let new = match mode {
            0 => value,
            1 => old.wrapping_add(value % 8 + 1),
            2 => old.wrapping_sub(value % 8 + 1),
            _ => 1 << (value % 64),
        };
        let new = if width == 4 { new as u32 as u64 } else { new };
        prop_assume!(new != old);
        payload[at..at + width].copy_from_slice(&new.to_le_bytes()[..width]);
        let bytes = seal(payload);
        let (ok, peak) = decode(rank, &bytes);
        prop_assert!(!ok, "field at {at}: {old} -> {new} still decoded");
        prop_assert!(peak <= bytes.len(), "field at {at}: {old} -> {new} reserved {peak} B");
    }
}
