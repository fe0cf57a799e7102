//! Dump files: binary checkpoints of tile state.
//!
//! The paper's dump files "contain all the information that is needed by a
//! workstation to participate in a distributed computation" (section 4.1) and
//! are reused for periodic fault-tolerance saves ("a new simulation is
//! started from the last state which is saved automatically every 10–20
//! minutes") and for migration. The format here is a simple little-endian
//! binary codec: header, parameters, geometry mask, macroscopic fields, and —
//! for the lattice Boltzmann method — the populations.
//!
//! Because a dump may be read back after a host crash, the file must be
//! self-validating: version 2 appends a 64-bit FNV-1a checksum over the whole
//! payload, so a truncated or bit-rotted dump is rejected with a typed
//! [`DumpError`] instead of resurrecting silently-corrupt fields. Saves are
//! torn-write-safe: bytes land in a temp file that is fsynced and atomically
//! renamed over the target, so a worker killed mid-checkpoint can never
//! destroy the last good checkpoint.

use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;
use subsonic_grid::{Cell, PaddedGrid2};
use subsonic_solvers::{FluidParams, Macro2, TileState2};

const MAGIC: u64 = 0x5355_4253_4f4e_4943; // "SUBSONIC"
const VERSION: u32 = 2; // v2 = v1 + FNV-1a checksum trailer

/// Why a dump could not be written or restored.
///
/// Every corruption mode a crash can produce has its own variant so callers
/// (the supervisor deciding whether an on-disk checkpoint is usable) can
/// distinguish "file missing" from "file damaged" without string matching.
#[derive(Debug)]
pub enum DumpError {
    /// The underlying file operation failed (open/read/write/rename).
    Io(io::Error),
    /// The magic number does not identify a subsonic dump.
    NotADump,
    /// The dump was written by an unsupported format version.
    UnsupportedVersion(u32),
    /// The dump holds a tile of the wrong dimensionality.
    WrongDimensionality {
        /// Dimensionality this decoder expects (2 or 3).
        expected: u32,
        /// Dimensionality recorded in the dump header.
        found: u32,
    },
    /// The FNV-1a trailer does not match the payload: bit rot or a torn
    /// write somewhere in the file.
    ChecksumMismatch,
    /// The dump ends before the payload does (truncated file).
    Truncated,
    /// A field decoded to an impossible value (names the field).
    BadField(&'static str),
}

impl fmt::Display for DumpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DumpError::Io(e) => write!(f, "dump file i/o failed: {e}"),
            DumpError::NotADump => write!(f, "not a subsonic dump file"),
            DumpError::UnsupportedVersion(v) => write!(f, "unsupported dump version {v}"),
            DumpError::WrongDimensionality { expected, found } => {
                write!(f, "expected a {expected}D dump, found {found}D")
            }
            DumpError::ChecksumMismatch => {
                write!(f, "dump checksum mismatch (corrupt or truncated)")
            }
            DumpError::Truncated => write!(f, "dump ends before its payload does"),
            DumpError::BadField(name) => write!(f, "dump field `{name}` holds a bad value"),
        }
    }
}

impl std::error::Error for DumpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DumpError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for DumpError {
    fn from(e: io::Error) -> Self {
        DumpError::Io(e)
    }
}

/// Writes `bytes` to `path` torn-write-safely: temp file in the same
/// directory, fsync, atomic rename. A crash at any instant leaves either the
/// old file or the new one, never a hybrid.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "dump path has no file name"))?
        .to_os_string();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    let write = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if write.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    write?;
    // Make the rename itself durable where the filesystem allows it.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// 64-bit FNV-1a over `bytes`.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Appends the checksum trailer over everything encoded so far.
pub(crate) fn seal(mut buf: Vec<u8>) -> Vec<u8> {
    let sum = fnv1a(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

/// Validates and strips the checksum trailer, returning the payload.
pub(crate) fn verify(bytes: &[u8]) -> Result<&[u8], DumpError> {
    if bytes.len() < 8 {
        return Err(DumpError::Truncated);
    }
    let (payload, trailer) = bytes.split_at(bytes.len() - 8);
    let mut sum = [0u8; 8];
    sum.copy_from_slice(trailer);
    if fnv1a(payload) != u64::from_le_bytes(sum) {
        return Err(DumpError::ChecksumMismatch);
    }
    Ok(payload)
}

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn grid(&mut self, g: &PaddedGrid2<f64>) {
        let h = g.halo() as isize;
        for j in -h..(g.ny() as isize + h) {
            for i in -h..(g.nx() as isize + h) {
                self.f64(g[(i, j)]);
            }
        }
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DumpError> {
        if self.at + n > self.buf.len() {
            return Err(DumpError::Truncated);
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }
    fn u32(&mut self) -> Result<u32, DumpError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Result<u64, DumpError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }
    fn f64(&mut self) -> Result<f64, DumpError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(f64::from_le_bytes(a))
    }
    fn grid(&mut self, nx: usize, ny: usize, halo: usize) -> Result<PaddedGrid2<f64>, DumpError> {
        let mut g = PaddedGrid2::new(nx, ny, halo, 0.0f64);
        let h = halo as isize;
        for j in -h..(ny as isize + h) {
            for i in -h..(nx as isize + h) {
                g[(i, j)] = self.f64()?;
            }
        }
        Ok(g)
    }
}

fn cell_to_u8(c: Cell) -> u8 {
    match c {
        Cell::Fluid => 0,
        Cell::Wall => 1,
        Cell::Inlet => 2,
        Cell::Outlet => 3,
    }
}

fn cell_from_u8(v: u8) -> Result<Cell, DumpError> {
    Ok(match v {
        0 => Cell::Fluid,
        1 => Cell::Wall,
        2 => Cell::Inlet,
        3 => Cell::Outlet,
        _ => return Err(DumpError::BadField("cell tag")),
    })
}

fn params_to(enc: &mut Enc, p: &FluidParams) {
    enc.f64(p.cs);
    enc.f64(p.nu);
    enc.f64(p.dx);
    enc.f64(p.dt);
    enc.f64(p.rho0);
    for v in p.body_force {
        enc.f64(v);
    }
    for v in p.inlet_velocity {
        enc.f64(v);
    }
    enc.f64(p.filter_eps);
}

fn params_from(dec: &mut Dec) -> Result<FluidParams, DumpError> {
    Ok(FluidParams {
        cs: dec.f64()?,
        nu: dec.f64()?,
        dx: dec.f64()?,
        dt: dec.f64()?,
        rho0: dec.f64()?,
        body_force: [dec.f64()?, dec.f64()?, dec.f64()?],
        inlet_velocity: [dec.f64()?, dec.f64()?, dec.f64()?],
        filter_eps: dec.f64()?,
    })
}

/// Serialises a 2D tile into a dump-file byte buffer.
pub fn dump_tile2(t: &TileState2) -> Vec<u8> {
    let mut e = Enc { buf: Vec::new() };
    e.u64(MAGIC);
    e.u32(VERSION);
    e.u32(2); // dimensionality
    e.u64(t.step);
    e.u64(t.nx() as u64);
    e.u64(t.ny() as u64);
    e.u64(t.halo() as u64);
    e.u64(t.offset.0 as u64);
    e.u64(t.offset.1 as u64);
    params_to(&mut e, &t.params);
    // geometry mask over the full padded region
    let h = t.halo() as isize;
    for j in -h..(t.ny() as isize + h) {
        for i in -h..(t.nx() as isize + h) {
            e.buf.push(cell_to_u8(t.mask[(i, j)]));
        }
    }
    e.grid(&t.mac.rho);
    e.grid(&t.mac.vx);
    e.grid(&t.mac.vy);
    e.u32(t.f.len() as u32);
    for fq in &t.f {
        e.grid(fq);
    }
    seal(e.buf)
}

/// Restores a 2D tile from dump-file bytes.
pub fn restore_tile2(bytes: &[u8]) -> Result<TileState2, DumpError> {
    let payload = verify(bytes)?;
    let mut d = Dec {
        buf: payload,
        at: 0,
    };
    if d.u64()? != MAGIC {
        return Err(DumpError::NotADump);
    }
    let version = d.u32()?;
    if version != VERSION {
        return Err(DumpError::UnsupportedVersion(version));
    }
    let dim = d.u32()?;
    if dim != 2 {
        return Err(DumpError::WrongDimensionality {
            expected: 2,
            found: dim,
        });
    }
    let step = d.u64()?;
    let nx = d.u64()? as usize;
    let ny = d.u64()? as usize;
    let halo = d.u64()? as usize;
    let offset = (d.u64()? as usize, d.u64()? as usize);
    let params = params_from(&mut d)?;
    let mut mask = PaddedGrid2::new(nx, ny, halo, Cell::Fluid);
    let h = halo as isize;
    for j in -h..(ny as isize + h) {
        for i in -h..(nx as isize + h) {
            mask[(i, j)] = cell_from_u8(d.take(1)?[0])?;
        }
    }
    let rho = d.grid(nx, ny, halo)?;
    let vx = d.grid(nx, ny, halo)?;
    let vy = d.grid(nx, ny, halo)?;
    let nf = d.u32()? as usize;
    let mut f = Vec::with_capacity(nf);
    for _ in 0..nf {
        f.push(d.grid(nx, ny, halo)?);
    }
    let mac = Macro2 { rho, vx, vy };
    // neither temporary is in the dump: rebuilt as the owning solver's
    // `make_tile` shapes them — full planes for finite differences, zero
    // extent for lattice Boltzmann (a dump with populations)
    let (mac_new, scratch) = if f.is_empty() {
        (mac.clone(), vec![PaddedGrid2::new(nx, ny, halo, 0.0f64)])
    } else {
        (Macro2::uniform(0, 0, 0, params.rho0), Vec::new())
    };
    Ok(TileState2 {
        mac,
        mac_new,
        f,
        mask,
        scratch,
        params,
        offset,
        step,
        // derived caches and scratch; rebuilt lazily by the solver
        shift_links: None,
        sweep_rows: Vec::new(),
    })
}

/// Writes a tile dump to a file (temp file + atomic rename).
pub fn save_tile2(t: &TileState2, path: &Path) -> Result<u64, DumpError> {
    let bytes = dump_tile2(t);
    write_atomic(path, &bytes)?;
    Ok(bytes.len() as u64)
}

/// Reads a tile dump from a file, verifying its checksum.
pub fn load_tile2(path: &Path) -> Result<TileState2, DumpError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    restore_tile2(&bytes)
}

/// Pre-encoded dump bytes (2D or 3D) whose checksum trailer has been
/// verified — the form a checkpoint shipped over a control socket takes
/// before the multi-process supervisor may adopt it as a rollback target or
/// write it over a good file. Verifying ([`SealedDump::new`]) and persisting
/// ([`SealedDump::persist`]) are separate steps, so the supervisor can check
/// a cut the moment it arrives and write it while the workers run on; the
/// type is what guarantees that only verified bytes ever reach the disk.
pub struct SealedDump(Vec<u8>);

impl SealedDump {
    /// Verifies the checksum of `bytes` (already sealed by the worker).
    pub fn new(bytes: Vec<u8>) -> Result<SealedDump, DumpError> {
        verify(&bytes)?;
        Ok(SealedDump(bytes))
    }

    /// Dumps `t`: bytes this process sealed itself need no second look.
    pub fn of_tile2(t: &TileState2) -> SealedDump {
        SealedDump(dump_tile2(t))
    }

    /// The sealed bytes, trailer included.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// The sealed bytes, for shipping.
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }

    /// The checksum the dump is sealed with: a fingerprint of the whole
    /// tile state that costs nothing to read.
    pub fn seal(&self) -> u64 {
        let mut trailer = [0u8; 8];
        trailer.copy_from_slice(&self.0[self.0.len() - 8..]);
        u64::from_le_bytes(trailer)
    }

    /// Atomically persists the dump to `path` (temp file, fsync, rename,
    /// directory fsync): a corrupted ship can never replace a good
    /// checkpoint, and a crash leaves the old file or the new one.
    pub fn persist(&self, path: &Path) -> Result<(), DumpError> {
        write_atomic(path, &self.0)?;
        Ok(())
    }
}

/// Reads raw dump bytes from `path`, verifying the checksum trailer but not
/// decoding the payload — the counterpart of [`SealedDump::persist`] for
/// shipping a stored checkpoint back out over a wire.
pub fn load_dump_bytes(path: &Path) -> Result<Vec<u8>, DumpError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    verify(&bytes)?;
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use subsonic_grid::{Decomp2, Geometry2};
    use subsonic_solvers::{FiniteDifference2, InitialState2, LatticeBoltzmann2, Solver2};

    fn sample_tile(lbm: bool) -> TileState2 {
        let geom = Geometry2::channel(16, 12, 2);
        let d = Decomp2::with_periodicity(16, 12, 1, 1, true, false);
        let mut params = FluidParams::lattice_units(0.05);
        params.body_force[0] = 2e-5;
        let init = InitialState2::from_fn(|i, j| (1.0 + 0.001 * (i + j) as f64, 0.0, 0.0));
        if lbm {
            let s = LatticeBoltzmann2;
            s.make_tile(geom.tile_mask(&d, 0, s.halo()), params, (0, 0), &init)
        } else {
            let s = FiniteDifference2;
            s.make_tile(geom.tile_mask(&d, 0, s.halo()), params, (0, 0), &init)
        }
    }

    fn assert_tiles_equal(a: &TileState2, b: &TileState2) {
        assert_eq!(a.step, b.step);
        assert_eq!(a.offset, b.offset);
        assert_eq!((a.nx(), a.ny(), a.halo()), (b.nx(), b.ny(), b.halo()));
        let h = a.halo() as isize;
        for j in -h..(a.ny() as isize + h) {
            for i in -h..(a.nx() as isize + h) {
                assert_eq!(a.mask[(i, j)], b.mask[(i, j)]);
                assert_eq!(a.mac.rho[(i, j)].to_bits(), b.mac.rho[(i, j)].to_bits());
                assert_eq!(a.mac.vx[(i, j)].to_bits(), b.mac.vx[(i, j)].to_bits());
                assert_eq!(a.mac.vy[(i, j)].to_bits(), b.mac.vy[(i, j)].to_bits());
            }
        }
        assert_eq!(a.f.len(), b.f.len());
        for (fa, fb) in a.f.iter().zip(&b.f) {
            for j in -h..(a.ny() as isize + h) {
                for i in -h..(a.nx() as isize + h) {
                    assert_eq!(fa[(i, j)].to_bits(), fb[(i, j)].to_bits());
                }
            }
        }
    }

    #[test]
    fn fd_tile_roundtrips() {
        let t = sample_tile(false);
        let restored = restore_tile2(&dump_tile2(&t)).unwrap();
        assert_tiles_equal(&t, &restored);
        // the FD double buffer and filter scratch plane come back full-size
        assert_eq!(restored.mac_new.rho.raw().len(), t.mac.rho.raw().len());
        assert_eq!(restored.scratch.len(), 1);
    }

    #[test]
    fn lbm_tile_roundtrips_with_populations() {
        let t = sample_tile(true);
        let bytes = dump_tile2(&t);
        assert!(
            bytes.len() > 9 * 8 * 16 * 12,
            "populations missing from dump"
        );
        let restored = restore_tile2(&bytes).unwrap();
        assert_tiles_equal(&t, &restored);
    }

    #[test]
    fn corrupt_magic_is_rejected() {
        let t = sample_tile(false);
        let mut bytes = dump_tile2(&t);
        bytes[0] ^= 0xff;
        assert!(restore_tile2(&bytes).is_err());
    }

    #[test]
    fn truncated_dump_is_rejected() {
        let t = sample_tile(false);
        let bytes = dump_tile2(&t);
        assert!(restore_tile2(&bytes[..bytes.len() / 2]).is_err());
        // even losing a single trailing byte must fail the checksum
        assert!(restore_tile2(&bytes[..bytes.len() - 1]).is_err());
        assert!(
            restore_tile2(&bytes[..4]).is_err(),
            "shorter than the trailer"
        );
    }

    #[test]
    fn bit_rot_in_the_payload_is_detected() {
        // Version 1 validated only the header: a flipped bit deep inside a
        // field grid restored "successfully" as corrupt physics. The v2
        // checksum must catch it anywhere in the file.
        let t = sample_tile(true);
        let clean = dump_tile2(&t);
        for at in [100, clean.len() / 2, clean.len() - 9] {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x04;
            let err = restore_tile2(&bytes).expect_err("corruption missed");
            assert!(matches!(err, DumpError::ChecksumMismatch), "flip at {at}");
        }
    }

    #[test]
    fn version_1_dumps_are_rejected() {
        // Fake an old dump: rewrite the version field and re-seal so only
        // the version check can fail.
        let t = sample_tile(false);
        let bytes = dump_tile2(&t);
        let mut payload = bytes[..bytes.len() - 8].to_vec();
        payload[8..12].copy_from_slice(&1u32.to_le_bytes());
        let err = restore_tile2(&seal(payload)).expect_err("version check missed");
        assert!(matches!(err, DumpError::UnsupportedVersion(1)));
    }

    #[test]
    fn typed_errors_name_the_corruption() {
        let t = sample_tile(false);
        let bytes = dump_tile2(&t);
        assert!(matches!(
            restore_tile2(&bytes[..4]),
            Err(DumpError::Truncated)
        ));
        let mut wrong_magic = bytes[..bytes.len() - 8].to_vec();
        wrong_magic[0] ^= 0xff;
        assert!(matches!(
            restore_tile2(&seal(wrong_magic)),
            Err(DumpError::NotADump)
        ));
        let missing = load_tile2(Path::new("/nonexistent/subsonic/tile.dump"));
        assert!(matches!(missing, Err(DumpError::Io(_))));
        for e in [
            DumpError::NotADump,
            DumpError::UnsupportedVersion(7),
            DumpError::WrongDimensionality {
                expected: 2,
                found: 3,
            },
            DumpError::ChecksumMismatch,
            DumpError::Truncated,
            DumpError::BadField("cell tag"),
            DumpError::Io(io::Error::other("disk gone")),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn save_replaces_a_torn_file_atomically() {
        // Simulate a worker killed mid-checkpoint under the OLD scheme: the
        // target path holds a half-written dump. Loading detects it with a
        // typed error, and a fresh save replaces it whole (no temp residue).
        let t = sample_tile(true);
        let dir = std::env::temp_dir().join("subsonic_ckpt_torn_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tile0.dump");
        let clean = dump_tile2(&t);
        std::fs::write(&path, &clean[..clean.len() / 3]).unwrap();
        let err = load_tile2(&path).expect_err("torn dump accepted");
        assert!(matches!(
            err,
            DumpError::Truncated | DumpError::ChecksumMismatch
        ));
        save_tile2(&t, &path).unwrap();
        let restored = load_tile2(&path).unwrap();
        assert_tiles_equal(&t, &restored);
        let residue: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(residue.is_empty(), "temp files left behind: {residue:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // standard FNV-1a test vectors
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn file_roundtrip() {
        let t = sample_tile(true);
        let dir = std::env::temp_dir().join("subsonic_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tile0.dump");
        let n = save_tile2(&t, &path).unwrap();
        assert!(n > 0);
        let restored = load_tile2(&path).unwrap();
        assert_tiles_equal(&t, &restored);
        let _ = std::fs::remove_file(&path);
    }

    /// LB tiles carry no full-plane temporaries (the half-step sweep works
    /// out of a few rows), whether built by `make_tile` or restored.
    fn assert_no_plane_temporaries(t: &TileState2) {
        for g in [&t.mac_new.rho, &t.mac_new.vx, &t.mac_new.vy] {
            assert!(g.raw().is_empty(), "LB tile carries a mac_new plane");
        }
        assert!(t.scratch.is_empty(), "LB tile carries a scratch plane");
    }

    #[test]
    fn restored_tile_continues_identically() {
        // step a tile 5 times, dump, step 5 more; vs restore-then-step-5.
        let solver = LatticeBoltzmann2;
        let mut t = sample_tile(true);
        assert_no_plane_temporaries(&t);
        let step = |s: &LatticeBoltzmann2, t: &mut TileState2| {
            use subsonic_grid::Face2;
            use subsonic_solvers::StepOp;
            for op in s.plan() {
                match *op {
                    StepOp::Compute(k) => s.compute(t, k),
                    StepOp::Exchange(x) => {
                        for face in [Face2::West, Face2::East] {
                            let mut buf = Vec::new();
                            s.pack(t, x, face.opposite(), &mut buf);
                            s.unpack(t, x, face, &buf);
                        }
                    }
                }
            }
        };
        for _ in 0..5 {
            step(&solver, &mut t);
        }
        let dump = dump_tile2(&t);
        let mut branch = restore_tile2(&dump).unwrap();
        assert_no_plane_temporaries(&branch);
        for _ in 0..5 {
            step(&solver, &mut t);
            step(&solver, &mut branch);
        }
        assert_tiles_equal(&t, &branch);
        assert_no_plane_temporaries(&t);
        assert_no_plane_temporaries(&branch);
    }
}
