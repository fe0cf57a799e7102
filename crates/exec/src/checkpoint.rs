//! Dump files: binary checkpoints of tile state.
//!
//! The paper's dump files "contain all the information that is needed by a
//! workstation to participate in a distributed computation" (section 4.1) and
//! are reused for periodic fault-tolerance saves ("a new simulation is
//! started from the last state which is saved automatically every 10–20
//! minutes") and for migration. The format here is one simple little-endian
//! binary layout for 2D and 3D tiles ([`DumpTile`]), written and read with
//! the workspace's one byte codec (`subsonic_obs::codec`): header,
//! parameters, geometry mask, macroscopic fields, and — for the lattice
//! Boltzmann method — the populations, every grid written as its padded
//! x-rows.
//!
//! Layout (format v3; all integers little-endian):
//!
//! | bytes | field |
//! |---|---|
//! | 8 | magic `"SUBSONIC"` |
//! | 4 | version: 3 (2 is still restored) |
//! | 4 | rank `R` (2 or 3) |
//! | 8 | completed steps |
//! | 8·R | interior extent per axis |
//! | 8 | halo width |
//! | 8·R | global offset per axis |
//! | 8·12 | parameters: cs, ν, dx, dt, ρ₀, body force ×3, inlet velocity ×3, filter ε |
//! | cells | mask, one tag byte per padded node |
//! | 8·cells·(R+1) | ρ and one velocity per axis, as `f64` |
//! | 4 | population count `nf` |
//! | 8·cells·nf | the populations, as `f64` |
//! | 8 | seal over every byte above |
//!
//! Because a dump may be read back after a host crash, the file must be
//! self-validating: the trailer seals the whole payload, so a truncated or
//! bit-rotted dump is rejected with a typed [`DumpError`] instead of
//! resurrecting silently-corrupt fields. v2 sealed with byte-serial 64-bit
//! FNV-1a, one multiply in a latency chain per byte; v3 changes nothing but
//! the version field and the seal, `seal_v3`:
//!
//! * sixteen u64 lanes, lane `i` starting at the FNV-1a offset basis plus
//!   `i`; each whole 128-byte block feeds its sixteen little-endian words to
//!   the sixteen lanes in order, `lane = step(lane, word)`;
//! * then one fold: `h = step(basis, payload length)`, then
//!   `h = step(h, lane)` for the lanes in order, then `h = step(h, byte)`
//!   for each of the 0–127 bytes after the last whole block;
//! * where `step(h, x) = ((h ^ x) · 0x9e37_79b9_7f4a_7c15) rotl 31`.
//!
//! `step` is a bijection in `h` for a fixed `x` and in `x` for a fixed `h`,
//! so corrupting any one word (or any one tail byte) changes its lane and
//! then the result: every single-word error is caught, as FNV-1a catches
//! every single-byte one — except in the version field, which picks the
//! hash (below). A corruption that turns a 3 there into a 2 (bit 0) or back
//! has the payload checked with the other version's hash against this
//! one's trailer, which is caught only as any wrong trailer is, with
//! probability 1 − 2⁻⁶⁴, not by construction. The rotation feeds each lane's high bits back
//! into its low ones, which a bare multiply never does. FNV-1a is one
//! multiply-latency chain per byte; sixteen independent chains (four
//! vector registers of four lanes, or sixteen scalar multiplies in flight)
//! hash faster than a copy moves the bytes. The version field picks the
//! hash: a v2 dump still verifies with FNV-1a ([`fnv1a`]), and a payload of
//! one version under the other's trailer is a
//! [`DumpError::ChecksumMismatch`].
//!
//! The seal is a checksum, not a MAC: it has no key, and dumps also arrive
//! over sockets, so anyone can re-seal a forged payload. The decoder
//! therefore checks the header's extents against the exact payload length
//! before it allocates anything. Saves are torn-write-safe: bytes land in a
//! temp file that is fsynced and atomically renamed over the target, so a
//! worker killed mid-checkpoint can never destroy the last good checkpoint.

use std::fmt;
use std::io::{self, Write};
use std::path::Path;
use subsonic_grid::{Cell, PaddedGrid2, PaddedGrid3};
use subsonic_obs::codec::{self, Dec, Enc, Truncated, FNV_BASIS};
use subsonic_solvers::{FluidParams, Macro2, Macro3, TileState2, TileState3};

const MAGIC: u64 = 0x5355_4253_4f4e_4943; // "SUBSONIC"
const VERSION: u32 = 3; // v3 = v2 sealed with `seal_v3` instead of FNV-1a
const VERSION_FNV: u32 = 2; // the last version sealed with FNV-1a; restored, never written

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
    /// The seal trailer does not match the payload: bit rot or a torn
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

impl From<Truncated> for DumpError {
    fn from(_: Truncated) -> Self {
        DumpError::Truncated
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

/// 64-bit FNV-1a, the v2 seal: the workspace's one FNV-1a, re-exported.
pub use subsonic_obs::codec::fnv1a;

const SEAL_LANES: usize = 16;

/// One step of the v3 seal: a bijection in `h` and in `x`.
fn seal_step(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31)
}

/// The v3 seal over `bytes` (the module docs give the spec): sixteen
/// independent word-wise lanes, then one fold of the length, the lanes and
/// the tail bytes.
pub(crate) fn seal_v3(bytes: &[u8]) -> u64 {
    let mut lanes: [u64; SEAL_LANES] = std::array::from_fn(|i| FNV_BASIS + i as u64);
    let (blocks, tail) = bytes.as_chunks::<{ 8 * SEAL_LANES }>();
    for block in blocks {
        for (lane, word) in lanes.iter_mut().zip(block.as_chunks::<8>().0) {
            *lane = seal_step(*lane, u64::from_le_bytes(*word));
        }
    }
    let h = seal_step(FNV_BASIS, bytes.len() as u64);
    let h = lanes.into_iter().fold(h, seal_step);
    tail.iter().fold(h, |h, &b| seal_step(h, b as u64))
}

/// The seal `payload`'s own version field asks for: FNV-1a for v2, the v3
/// seal for anything else (an unknown version is refused after the seal).
fn checksum(payload: &[u8]) -> u64 {
    match payload.get(8..12) {
        Some(v) if v == VERSION_FNV.to_le_bytes() => fnv1a(payload),
        _ => seal_v3(payload),
    }
}

/// Appends the seal trailer over everything encoded so far.
pub(crate) fn seal(mut buf: Vec<u8>) -> Vec<u8> {
    let sum = checksum(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

/// Validates and strips the seal trailer, returning the payload.
pub(crate) fn verify(bytes: &[u8]) -> Result<&[u8], DumpError> {
    let (payload, sum) = codec::trailer(bytes)?;
    if checksum(payload) != sum {
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
///
/// A dump holds the header fields, `mask`, `mac` and `f`. It leaves out
/// `mac_new` and `scratch` (temporaries), `shift_links` and `runs` (caches
/// derived from `mask`) and, in 2D, `sweep_rows` (the LB sweep's row
/// workspace); [`DumpTile::assemble`] rebuilds them.
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

fn put_grid(e: &mut Enc, g: &impl PaddedRows<f64>) {
    for row in g.rows() {
        e.f64s(row);
    }
}

fn get_usize(d: &mut Dec) -> Result<usize, DumpError> {
    usize::try_from(d.u64()?).map_err(|_| DumpError::BadField("tile extents"))
}

fn get_grid<T: DumpTile>(d: &mut Dec, h: &DumpHeader) -> Result<T::Grid<f64>, DumpError> {
    let mut g = T::grid(h, 0.0f64);
    for row in g.rows_mut() {
        let src = d.f64s(row.len())?;
        for (v, x) in row.iter_mut().zip(src) {
            *v = x;
        }
    }
    Ok(g)
}

/// Checks that the rest of the payload is exactly the body `h` describes
/// for a tile of `rank`, *before* anything is allocated from the header
/// (the checksum is no MAC: a re-sealed dump can name any extents).
/// Returns the population count.
fn body_fits(d: &Dec, h: &DumpHeader, rank: usize) -> Result<usize, DumpError> {
    if h.extent[..rank].contains(&0) {
        return Err(DumpError::BadField("tile extents"));
    }
    let len = |nf| {
        h.body_len(rank, nf)
            .ok_or(DumpError::BadField("tile extents"))
    };
    // the population count follows the mask and the macroscopic fields
    let mut peek = *d;
    peek.take(len(0)? - 4)?;
    let nf = peek.u32()? as usize;
    let left = d.left();
    match len(nf)? {
        n if n > left => Err(DumpError::Truncated),
        n if n < left => Err(DumpError::BadField("payload length")),
        _ => Ok(nf),
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

fn params_from(dec: &mut Dec) -> Result<FluidParams, Truncated> {
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
        put_grid(&mut e, *g);
    }
    e.u32(pops.len() as u32);
    for g in pops {
        put_grid(&mut e, *g);
    }
    seal(e.0)
}

/// Restores a tile from dump-file bytes.
pub fn restore_tile<T: DumpTile>(bytes: &[u8]) -> Result<T, DumpError> {
    decode(verify(bytes)?)
}

/// Decodes a payload whose seal has been checked.
fn decode<T: DumpTile>(payload: &[u8]) -> Result<T, DumpError> {
    let (mut d, rank) = (Dec::new(payload), T::RANK);
    if d.u64()? != MAGIC {
        return Err(DumpError::NotADump);
    }
    let version = d.u32()?;
    if version != VERSION && version != VERSION_FNV {
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
        *n = get_usize(&mut d)?;
    }
    let halo = get_usize(&mut d)?;
    for o in &mut offset[..rank] {
        *o = get_usize(&mut d)?;
    }
    let params = params_from(&mut d)?;
    let h = DumpHeader {
        step,
        extent,
        halo,
        offset,
        params,
    };
    let nf = body_fits(&d, &h, rank)?;
    let mut mask = T::grid(&h, Cell::Fluid);
    for row in mask.rows_mut() {
        let src = d.take(row.len())?;
        for (c, &b) in row.iter_mut().zip(src) {
            *c = cell_from_u8(b)?;
        }
    }
    let mut fields = d.vec_of(rank + 1, 8, |d| get_grid::<T>(d, &h))?;
    d.u32()?; // the population count, read by `body_fits`
    fields.extend(d.vec_of(nf, 8, |d| get_grid::<T>(d, &h))?);
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

    /// Restores the tile. The seal was checked when these bytes arrived (or
    /// they were sealed here), so this decodes without hashing them again.
    pub fn restore<T: DumpTile>(&self) -> Result<T, DumpError> {
        decode(&self.0[..self.0.len() - 8])
    }

    /// The sealed bytes, for shipping.
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }

    /// The checksum the dump is sealed with: a fingerprint of the whole
    /// tile state that costs nothing to read.
    pub fn seal(&self) -> u64 {
        codec::trailer(&self.0).map_or(0, |(_, sum)| sum)
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

    /// The dump of tile 0 of a two-tile run after three steps.
    fn pinned_dump<D: Dim>(solver: Arc<D::Solver>, problem: D::Problem) -> Vec<u8> {
        let mut runner = LocalRunner::<D>::new(solver, problem);
        runner.run(3);
        dump_tile(runner.tile(0).unwrap())
    }

    /// The pinned dumps: LB2D, FD2, LB3D, FD3.
    fn pinned_dumps() -> [Vec<u8>; 4] {
        let mut params = FluidParams::lattice_units(0.05);
        params.body_force[0] = 1.5e-5;
        let p2 = Problem2::new(Geometry2::channel(24, 16, 2), 2, 1, params)
            .with_init(|x, y| (1.0 + 1e-3 * x as f64 + 2e-3 * y as f64, 0.0, 0.0));
        let p3 = Problem3::new(Geometry3::duct(12, 10, 10, 2), 2, 1, 1, params)
            .with_init(|x, y, z| (1.0 + 1e-3 * (x + 2 * y + 3 * z) as f64, 0.0, 0.0, 0.0));
        [
            pinned_dump::<D2>(Arc::new(LatticeBoltzmann2), p2.clone()),
            pinned_dump::<D2>(Arc::new(FiniteDifference2), p2),
            pinned_dump::<D3>(Arc::new(LatticeBoltzmann3), p3.clone()),
            pinned_dump::<D3>(Arc::new(FiniteDifference3), p3),
        ]
    }

    /// `bytes` (sealed, any version) re-stamped as `version` and re-sealed
    /// with the seal that version asks for.
    fn restamped(bytes: &[u8], version: u32) -> Vec<u8> {
        let mut payload = bytes[..bytes.len() - 8].to_vec();
        payload[8..12].copy_from_slice(&version.to_le_bytes());
        seal(payload)
    }

    /// `bytes` (sealed) with its trailer replaced by `sum`.
    fn resealed_with(bytes: &[u8], sum: fn(&[u8]) -> u64) -> Vec<u8> {
        let mut payload = bytes[..bytes.len() - 8].to_vec();
        let s = sum(&payload);
        payload.extend_from_slice(&s.to_le_bytes());
        payload
    }

    /// The dump bytes of both ranks and both solver families. On-disk
    /// checkpoints, `net::record::state_hash2` and every recorded run
    /// depend on them not moving. The v2 pins — length and FNV-1a of the
    /// whole sealed dump — are the values the separate 2D and 3D codecs
    /// produced before they became this one; asserting them on the v3
    /// payload re-stamped as v2 proves that format v3 moved nothing but the
    /// version field and the seal. The v3 pins are length and seal.
    #[test]
    fn dump_bytes_are_pinned() {
        let dumps = pinned_dumps();
        let v3: Vec<(usize, u64)> = dumps
            .iter()
            .map(|b| (b.len(), SealedDump::new(b.clone()).unwrap().seal()))
            .collect();
        let v2: Vec<(usize, u64)> = dumps
            .iter()
            .map(|b| restamped(b, 2))
            .map(|b| (b.len(), fnv1a(&b)))
            .collect();
        assert_eq!(
            v2,
            [
                (38584, 0x1ce4_24ab_86cc_4830),
                (12172, 0x363a_9283_0f0d_c400),
                (470204, 0x55c0_8953_4d61_8be7),
                (149876, 0x36f2_2a82_3eb9_65d3),
            ]
        );
        assert_eq!(
            v3,
            [
                (38584, 0x4917_ea1d_d714_5c27),
                (12172, 0x2421_573f_195b_ea94),
                (470204, 0xb55a_e4f7_4f3f_a38d),
                (149876, 0x51b9_be16_eebd_0673),
            ]
        );
    }

    #[test]
    fn seal_v3_matches_reference_vectors() {
        // bytes i mod 251, around the 128-byte block edge; the values were
        // computed by an independent implementation of the module docs' spec
        let vectors = [
            (0, 0x6a22_bf79_69c0_4035),
            (1, 0x04e0_5f6a_5e60_f8df),
            (31, 0xf2a6_c2ff_2bc5_c75f),
            (32, 0xddde_9f68_3660_77a6),
            (33, 0xb772_ce8c_6c51_a288),
            (127, 0x2834_89c4_4856_f33d),
            (128, 0x6f0d_dda6_fbcb_0875),
            (129, 0x0f1f_ee51_a8c6_6526),
            (4096, 0x8879_4aa4_101f_583a),
        ];
        for (n, want) in vectors {
            let input: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
            assert_eq!(seal_v3(&input), want, "{n} bytes");
        }
    }

    #[test]
    fn v2_dumps_restore_bitwise() {
        let t = sample_tile(true);
        let v2 = restamped(&dump_tile2(&t), 2);
        assert_eq!(&v2[8..12], &2u32.to_le_bytes());
        assert_tiles_equal(&t, &restore_tile2(&v2).unwrap());
        // the v2 trailer is plain FNV-1a over the payload
        let (payload, trailer) = v2.split_at(v2.len() - 8);
        assert_eq!(trailer, fnv1a(payload).to_le_bytes());
    }

    #[test]
    fn a_seal_of_the_other_version_is_a_mismatch() {
        let v3 = dump_tile2(&sample_tile(false));
        let v2 = restamped(&v3, 2);
        for bytes in [resealed_with(&v3, fnv1a), resealed_with(&v2, seal_v3)] {
            assert!(matches!(
                restore_tile2(&bytes),
                Err(DumpError::ChecksumMismatch)
            ));
        }
    }

    #[test]
    fn every_single_bit_flip_is_a_typed_error() {
        let [_, mut bytes, ..] = pinned_dumps();
        assert_eq!(bytes.len(), 12172, "the smallest pinned dump (FD2)");
        for bit in 0..bytes.len() * 8 {
            bytes[bit / 8] ^= 1 << (bit % 8);
            assert!(restore_tile2(&bytes).is_err(), "flip of bit {bit} restored");
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        assert!(restore_tile2(&bytes).is_ok());
    }

    #[test]
    fn a_sealed_dump_restores() {
        let t = sample_tile(true);
        let sealed = SealedDump::new(dump_tile2(&t)).unwrap();
        assert_tiles_equal(&t, &sealed.restore().unwrap());
        assert!(matches!(
            SealedDump::new(resealed_with(sealed.as_bytes(), fnv1a)),
            Err(DumpError::ChecksumMismatch)
        ));
    }
}
