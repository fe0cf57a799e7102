//! Dump files: binary checkpoints of tile state.
//!
//! The paper's dump files "contain all the information that is needed by a
//! workstation to participate in a distributed computation" (section 4.1) and
//! are reused for periodic fault-tolerance saves ("a new simulation is
//! started from the last state which is saved automatically every 10–20
//! minutes") and for migration. The format here is one simple little-endian
//! binary codec for 2D and 3D tiles ([`DumpTile`]): header, parameters,
//! geometry mask, macroscopic fields, and — for the lattice Boltzmann method
//! — the populations, every grid written as its padded x-rows.
//!
//! Because a dump may be read back after a host crash, the file must be
//! self-validating: version 2 appends a 64-bit FNV-1a checksum over the whole
//! payload, so a truncated or bit-rotted dump is rejected with a typed
//! [`DumpError`] instead of resurrecting silently-corrupt fields. The
//! checksum is not a MAC — dumps also arrive over sockets — so the decoder
//! checks the header's extents against the exact payload length before it
//! allocates anything. Saves are torn-write-safe: bytes land in a temp file
//! that is fsynced and atomically renamed over the target, so a worker killed
//! mid-checkpoint can never destroy the last good checkpoint.

use std::fmt;
use std::io::{self, Write};
use std::path::Path;
use subsonic_grid::{Cell, PaddedGrid2, PaddedGrid3};
use subsonic_solvers::{FluidParams, Macro2, Macro3, TileState2, TileState3};

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

/// A padded grid as a dump stores it: its padded x-rows
/// (`i ∈ [-halo, nx+halo)`), in storage order — y after x, then z — without
/// the stride padding.
pub trait PaddedRows<T: 'static> {
    /// The padded rows, in storage order.
    fn rows(&self) -> impl Iterator<Item = &[T]>;
    /// The padded rows, mutably, in storage order.
    fn rows_mut(&mut self) -> impl Iterator<Item = &mut [T]>;
}

macro_rules! padded_rows {
    ($($grid:ident),*) => {$(
        impl<T: 'static> PaddedRows<T> for $grid<T> {
            fn rows(&self) -> impl Iterator<Item = &[T]> {
                let width = self.nx() + 2 * self.halo();
                // a zero-width grid has no storage, hence no rows
                let stride = self.stride().max(1);
                self.raw().chunks_exact(stride).map(move |r| &r[..width])
            }
            fn rows_mut(&mut self) -> impl Iterator<Item = &mut [T]> {
                let width = self.nx() + 2 * self.halo();
                let stride = self.stride().max(1);
                self.raw_mut().chunks_exact_mut(stride).map(move |r| &mut r[..width])
            }
        }
    )*};
}
padded_rows!(PaddedGrid2, PaddedGrid3);

/// A dump's header: the shape of the tile's grids, where the tile sits and
/// its solver parameters. Only the first [`DumpTile::RANK`] entries of
/// `extent` and `offset` are stored.
#[derive(Debug, Clone, Copy)]
pub struct DumpHeader {
    /// Completed integration steps.
    pub step: u64,
    /// Interior extent along each axis.
    pub extent: [usize; 3],
    /// Ghost-layer width.
    pub halo: usize,
    /// Global offset of the interior node 0 along each axis.
    pub offset: [usize; 3],
    /// Solver parameters.
    pub params: FluidParams,
}

impl DumpHeader {
    /// Payload bytes after the parameters — mask, macroscopic fields,
    /// population count and `nf` population grids — or `None` if that
    /// overflows.
    fn body_len(&self, rank: usize, nf: usize) -> Option<usize> {
        let pad = self.halo.checked_mul(2)?;
        let cells = self.extent[..rank]
            .iter()
            .try_fold(1usize, |n, &e| n.checked_mul(e.checked_add(pad)?))?;
        let grids = (rank + 1).checked_add(nf)?.checked_mul(8)?;
        cells.checked_mul(grids)?.checked_add(cells)?.checked_add(4)
    }
}

/// A tile type the dump codec writes and restores: [`TileState2`] and
/// [`TileState3`]. The byte layout is the same for both ranks, with one
/// extent, one offset and one velocity field per axis.
pub trait DumpTile: Sized {
    /// Dimensionality recorded in (and required of) the dump.
    const RANK: usize;
    /// A padded grid of this rank.
    type Grid<T: 'static>: PaddedRows<T>;
    /// The header fields.
    fn header(&self) -> DumpHeader;
    /// Padded geometry mask.
    fn mask(&self) -> &Self::Grid<Cell>;
    /// The value grids in dump order: ρ, the velocity along each axis, then
    /// the lattice Boltzmann populations (none for finite differences).
    fn fields(&self) -> Vec<&Self::Grid<f64>>;
    /// A grid of the header's shape with every node set to `fill`.
    fn grid<T: Clone + 'static>(h: &DumpHeader, fill: T) -> Self::Grid<T>;
    /// Rebuilds a tile from decoded parts (`fields` in
    /// [`DumpTile::fields`] order). What the dump leaves out — temporaries
    /// and caches — is rebuilt as the owning solver's `make_tile` shapes it.
    fn assemble(
        h: DumpHeader,
        mask: Self::Grid<Cell>,
        fields: Vec<Self::Grid<f64>>,
    ) -> Result<Self, DumpError>;
}

struct Enc(Vec<u8>);

impl Enc {
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64s(&mut self, vs: &[f64]) {
        for v in vs {
            self.0.extend_from_slice(&v.to_le_bytes());
        }
    }
    fn grid(&mut self, g: &impl PaddedRows<f64>) {
        for row in g.rows() {
            self.f64s(row);
        }
    }
}

/// The undecoded rest of a payload.
#[derive(Clone, Copy)]
struct Dec<'a>(&'a [u8]);

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DumpError> {
        let (head, rest) = self.0.split_at_checked(n).ok_or(DumpError::Truncated)?;
        self.0 = rest;
        Ok(head)
    }
    fn bytes<const N: usize>(&mut self) -> Result<[u8; N], DumpError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }
    fn u32(&mut self) -> Result<u32, DumpError> {
        Ok(u32::from_le_bytes(self.bytes()?))
    }
    fn u64(&mut self) -> Result<u64, DumpError> {
        Ok(u64::from_le_bytes(self.bytes()?))
    }
    fn usize(&mut self) -> Result<usize, DumpError> {
        usize::try_from(self.u64()?).map_err(|_| DumpError::BadField("tile extents"))
    }
    fn f64(&mut self) -> Result<f64, DumpError> {
        Ok(f64::from_le_bytes(self.bytes()?))
    }
    fn grid<T: DumpTile>(&mut self, h: &DumpHeader) -> Result<T::Grid<f64>, DumpError> {
        let mut g = T::grid(h, 0.0f64);
        for row in g.rows_mut() {
            let src = self.take(row.len() * 8)?;
            for (v, b) in row.iter_mut().zip(src.chunks_exact(8)) {
                let mut a = [0u8; 8];
                a.copy_from_slice(b);
                *v = f64::from_le_bytes(a);
            }
        }
        Ok(g)
    }

    /// Checks that the rest of the payload is exactly the body `h` describes
    /// for a tile of `rank`, *before* anything is allocated from the header
    /// (the checksum is no MAC: a re-sealed dump can name any extents).
    /// Returns the population count.
    fn body_fits(&self, h: &DumpHeader, rank: usize) -> Result<usize, DumpError> {
        if h.extent[..rank].contains(&0) {
            return Err(DumpError::BadField("tile extents"));
        }
        let len = |nf| {
            h.body_len(rank, nf)
                .ok_or(DumpError::BadField("tile extents"))
        };
        // the population count follows the mask and the macroscopic fields
        let mut peek = *self;
        peek.take(len(0)? - 4)?;
        let nf = peek.u32()? as usize;
        let left = self.0.len();
        match len(nf)? {
            n if n > left => Err(DumpError::Truncated),
            n if n < left => Err(DumpError::BadField("payload length")),
            _ => Ok(nf),
        }
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
    enc.f64s(&[p.cs, p.nu, p.dx, p.dt, p.rho0]);
    enc.f64s(&p.body_force);
    enc.f64s(&p.inlet_velocity);
    enc.f64s(&[p.filter_eps]);
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

/// Serialises a tile into dump-file bytes.
pub fn dump_tile<T: DumpTile>(t: &T) -> Vec<u8> {
    let (h, rank, fields) = (t.header(), T::RANK, t.fields());
    let (mac, pops) = fields.split_at(rank + 1);
    let body = h.body_len(rank, pops.len()).unwrap_or(0);
    let mut e = Enc(Vec::with_capacity(256 + body));
    e.u64(MAGIC);
    e.u32(VERSION);
    e.u32(rank as u32);
    e.u64(h.step);
    for &n in &h.extent[..rank] {
        e.u64(n as u64);
    }
    e.u64(h.halo as u64);
    for &o in &h.offset[..rank] {
        e.u64(o as u64);
    }
    params_to(&mut e, &h.params);
    for row in t.mask().rows() {
        e.0.extend(row.iter().map(|&c| cell_to_u8(c)));
    }
    for g in mac {
        e.grid(*g);
    }
    e.u32(pops.len() as u32);
    for g in pops {
        e.grid(*g);
    }
    seal(e.0)
}

/// Restores a tile from dump-file bytes.
pub fn restore_tile<T: DumpTile>(bytes: &[u8]) -> Result<T, DumpError> {
    let (mut d, rank) = (Dec(verify(bytes)?), T::RANK);
    if d.u64()? != MAGIC {
        return Err(DumpError::NotADump);
    }
    let version = d.u32()?;
    if version != VERSION {
        return Err(DumpError::UnsupportedVersion(version));
    }
    let found = d.u32()?;
    if found as usize != rank {
        return Err(DumpError::WrongDimensionality {
            expected: rank as u32,
            found,
        });
    }
    let step = d.u64()?;
    let (mut extent, mut offset) = ([1; 3], [0; 3]);
    for n in &mut extent[..rank] {
        *n = d.usize()?;
    }
    let halo = d.usize()?;
    for o in &mut offset[..rank] {
        *o = d.usize()?;
    }
    let params = params_from(&mut d)?;
    let h = DumpHeader {
        step,
        extent,
        halo,
        offset,
        params,
    };
    let nf = d.body_fits(&h, rank)?;
    let mut mask = T::grid(&h, Cell::Fluid);
    for row in mask.rows_mut() {
        let src = d.take(row.len())?;
        for (c, &b) in row.iter_mut().zip(src) {
            *c = cell_from_u8(b)?;
        }
    }
    let mut fields = Vec::with_capacity(rank + 1 + nf);
    for k in 0..rank + 1 + nf {
        if k == rank + 1 {
            d.u32()?; // the population count, read by `body_fits`
        }
        fields.push(d.grid::<T>(&h)?);
    }
    T::assemble(h, mask, fields)
}

/// Writes a tile dump to a file (temp file + atomic rename); returns its
/// size in bytes.
pub fn save_tile<T: DumpTile>(t: &T, path: &Path) -> Result<u64, DumpError> {
    let bytes = dump_tile(t);
    write_atomic(path, &bytes)?;
    Ok(bytes.len() as u64)
}

/// Reads a tile dump from a file, verifying its checksum.
pub fn load_tile<T: DumpTile>(path: &Path) -> Result<T, DumpError> {
    restore_tile(&std::fs::read(path)?)
}

/// [`dump_tile`] for a 2D tile.
pub fn dump_tile2(t: &TileState2) -> Vec<u8> {
    dump_tile(t)
}

/// [`restore_tile`] for a 2D tile.
pub fn restore_tile2(bytes: &[u8]) -> Result<TileState2, DumpError> {
    restore_tile(bytes)
}

/// [`save_tile`] for a 2D tile.
pub fn save_tile2(t: &TileState2, path: &Path) -> Result<u64, DumpError> {
    save_tile(t, path)
}

/// [`load_tile`] for a 2D tile.
pub fn load_tile2(path: &Path) -> Result<TileState2, DumpError> {
    load_tile(path)
}

impl DumpTile for TileState2 {
    const RANK: usize = 2;
    type Grid<T: 'static> = PaddedGrid2<T>;

    fn header(&self) -> DumpHeader {
        DumpHeader {
            step: self.step,
            extent: [self.nx(), self.ny(), 1],
            halo: self.halo(),
            offset: [self.offset.0, self.offset.1, 0],
            params: self.params,
        }
    }
    fn mask(&self) -> &PaddedGrid2<Cell> {
        &self.mask
    }
    fn fields(&self) -> Vec<&PaddedGrid2<f64>> {
        let mac = [&self.mac.rho, &self.mac.vx, &self.mac.vy];
        mac.into_iter().chain(&self.f).collect()
    }
    fn grid<T: Clone + 'static>(h: &DumpHeader, fill: T) -> PaddedGrid2<T> {
        PaddedGrid2::new(h.extent[0], h.extent[1], h.halo, fill)
    }
    fn assemble(
        h: DumpHeader,
        mask: PaddedGrid2<Cell>,
        fields: Vec<PaddedGrid2<f64>>,
    ) -> Result<Self, DumpError> {
        let mut fields = fields.into_iter();
        let mut next = || fields.next().ok_or(DumpError::BadField("fields"));
        let (rho, vx, vy) = (next()?, next()?, next()?);
        let (mac, f) = (Macro2 { rho, vx, vy }, fields.collect::<Vec<_>>());
        // neither temporary is in the dump: full planes for finite
        // differences, zero extent for lattice Boltzmann (a dump with
        // populations)
        let (mac_new, scratch) = if f.is_empty() {
            (mac.clone(), vec![Self::grid(&h, 0.0f64)])
        } else {
            (Macro2::uniform(0, 0, 0, h.params.rho0), Vec::new())
        };
        Ok(TileState2 {
            mac,
            mac_new,
            f,
            mask,
            scratch,
            params: h.params,
            offset: (h.offset[0], h.offset[1]),
            step: h.step,
            // derived caches and scratch; rebuilt lazily by the solver
            shift_links: None,
            runs: None,
            sweep_rows: Vec::new(),
        })
    }
}

impl DumpTile for TileState3 {
    const RANK: usize = 3;
    type Grid<T: 'static> = PaddedGrid3<T>;

    fn header(&self) -> DumpHeader {
        DumpHeader {
            step: self.step,
            extent: [self.nx(), self.ny(), self.nz()],
            halo: self.halo(),
            offset: [self.offset.0, self.offset.1, self.offset.2],
            params: self.params,
        }
    }
    fn mask(&self) -> &PaddedGrid3<Cell> {
        &self.mask
    }
    fn fields(&self) -> Vec<&PaddedGrid3<f64>> {
        let mac = [&self.mac.rho, &self.mac.vx, &self.mac.vy, &self.mac.vz];
        mac.into_iter().chain(&self.f).collect()
    }
    fn grid<T: Clone + 'static>(h: &DumpHeader, fill: T) -> PaddedGrid3<T> {
        let [nx, ny, nz] = h.extent;
        PaddedGrid3::new(nx, ny, nz, h.halo, fill)
    }
    fn assemble(
        h: DumpHeader,
        mask: PaddedGrid3<Cell>,
        fields: Vec<PaddedGrid3<f64>>,
    ) -> Result<Self, DumpError> {
        let mut fields = fields.into_iter();
        let mut next = || fields.next().ok_or(DumpError::BadField("fields"));
        let (rho, vx, vy, vz) = (next()?, next()?, next()?, next()?);
        let (mac, f) = (Macro3 { rho, vx, vy, vz }, fields.collect());
        Ok(TileState3 {
            mac_new: mac.clone(),
            mac,
            f,
            mask,
            scratch: vec![Self::grid(&h, 0.0f64), Self::grid(&h, 0.0f64)],
            params: h.params,
            offset: (h.offset[0], h.offset[1], h.offset[2]),
            step: h.step,
            // derived from the mask; rebuilt lazily by the solver
            shift_links: None,
            runs: None,
        })
    }
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
    let bytes = std::fs::read(path)?;
    verify(&bytes)?;
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::dim::{Dim, D2, D3};
    use crate::local::LocalRunner;
    use crate::problem::{Problem2, Problem3};
    use std::sync::Arc;
    use subsonic_grid::{Decomp2, Decomp3, Geometry2, Geometry3};
    use subsonic_solvers::{
        FiniteDifference2, FiniteDifference3, InitialState2, InitialState3, LatticeBoltzmann2,
        LatticeBoltzmann3, Solver2, Solver3,
    };

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

    fn sample_tile3() -> TileState3 {
        let geom = Geometry3::duct(10, 9, 9, 2);
        let d = Decomp3::with_periodicity(10, 9, 9, 1, 1, 1, [true, false, false]);
        let mut params = FluidParams::lattice_units(0.05);
        params.body_force[0] = 2e-5;
        let init =
            InitialState3::from_fn(|i, j, k| (1.0 + 0.001 * (i + j + k) as f64, 0.0, 0.0, 0.0));
        let s = LatticeBoltzmann3;
        s.make_tile(geom.tile_mask(&d, 0, s.halo()), params, (0, 0, 0), &init)
    }

    #[test]
    fn roundtrip_3d() {
        let t = sample_tile3();
        let restored: TileState3 = restore_tile(&dump_tile(&t)).unwrap();
        assert_eq!(restored.step, t.step);
        assert_eq!(restored.offset, t.offset);
        assert!(restored.mask == t.mask);
        for (a, b) in restored.fields().into_iter().zip(t.fields()) {
            assert!(a
                .raw()
                .iter()
                .map(|v| v.to_bits())
                .eq(b.raw().iter().map(|v| v.to_bits())));
        }
        assert_eq!(restored.f.len(), t.f.len());
    }

    #[test]
    fn wrong_dimensionality_rejected() {
        let bytes = dump_tile(&sample_tile3());
        // rewrite the dimensionality field (offset: magic 8 + version 4) and
        // re-seal so the checksum passes and only the dim check can fire
        let mut payload = bytes[..bytes.len() - 8].to_vec();
        payload[12] = 2;
        assert!(matches!(
            restore_tile::<TileState3>(&seal(payload)),
            Err(DumpError::WrongDimensionality {
                expected: 3,
                found: 2
            })
        ));
        assert!(restore_tile2(&bytes).is_err(), "a 3D dump read as 2D");
    }

    #[test]
    fn corrupt_3d_dump_is_detected_anywhere() {
        let clean = dump_tile(&sample_tile3());
        for at in [40, clean.len() / 3, clean.len() - 10] {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x10;
            assert!(
                restore_tile::<TileState3>(&bytes).is_err(),
                "flip at {at} missed"
            );
        }
        assert!(
            restore_tile::<TileState3>(&clean[..clean.len() - 3]).is_err(),
            "truncation missed"
        );
    }

    #[test]
    fn file_roundtrip_3d() {
        let t = sample_tile3();
        let dir = std::env::temp_dir().join("subsonic_ckpt3_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tile.dump");
        let n = save_tile(&t, &path).unwrap();
        assert!(n > 0);
        let r: TileState3 = load_tile(&path).unwrap();
        assert_eq!(r.nx(), t.nx());
        let _ = std::fs::remove_file(&path);
    }

    /// `(len, FNV-1a)` of tile 0 of a two-tile run after three steps.
    fn dump_pin<D: Dim>(solver: Arc<D::Solver>, problem: D::Problem) -> (usize, u64) {
        let mut runner = LocalRunner::<D>::new(solver, problem);
        runner.run(3);
        let bytes = dump_tile(runner.tile(0).unwrap());
        (bytes.len(), fnv1a(&bytes))
    }

    /// The dump bytes of both ranks and both solver families, pinned to the
    /// values the separate 2D and 3D codecs produced before they became
    /// this one: on-disk checkpoints, `net::record::state_hash2` and every
    /// recorded run depend on them not moving.
    #[test]
    fn dump_bytes_are_pinned() {
        let mut params = FluidParams::lattice_units(0.05);
        params.body_force[0] = 1.5e-5;
        let p2 = Problem2::new(Geometry2::channel(24, 16, 2), 2, 1, params)
            .with_init(|x, y| (1.0 + 1e-3 * x as f64 + 2e-3 * y as f64, 0.0, 0.0));
        let p3 = Problem3::new(Geometry3::duct(12, 10, 10, 2), 2, 1, 1, params)
            .with_init(|x, y, z| (1.0 + 1e-3 * (x + 2 * y + 3 * z) as f64, 0.0, 0.0, 0.0));
        let pins = [
            dump_pin::<D2>(Arc::new(LatticeBoltzmann2), p2.clone()),
            dump_pin::<D2>(Arc::new(FiniteDifference2), p2),
            dump_pin::<D3>(Arc::new(LatticeBoltzmann3), p3.clone()),
            dump_pin::<D3>(Arc::new(FiniteDifference3), p3),
        ];
        assert_eq!(
            pins,
            [
                (38584, 0x1ce4_24ab_86cc_4830),
                (12172, 0x363a_9283_0f0d_c400),
                (470204, 0x55c0_8953_4d61_8be7),
                (149876, 0x36f2_2a82_3eb9_65d3),
            ]
        );
    }
}
