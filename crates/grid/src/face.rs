//! Faces of rectangular subregions and the staged exchange order.
//!
//! Halo exchange proceeds in one stage per axis (x first, then y, then z).
//! A stage's strips span the *already exchanged* axes in full, including their
//! ghost layers, so corner and edge ghosts are filled transitively without any
//! diagonal messages. This matches the paper's communication structure, where
//! each subregion talks only to its face neighbours.

/// A face of a 2D or 3D subregion. The variants come in exchange (stage)
/// order, low side before high side on each axis; a rank-`R` subregion has
/// the first `2R` of them ([`Face::of_rank`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Face {
    /// Negative-x neighbour.
    West,
    /// Positive-x neighbour.
    East,
    /// Negative-y neighbour.
    South,
    /// Positive-y neighbour.
    North,
    /// Negative-z neighbour.
    Down,
    /// Positive-z neighbour.
    Up,
}

/// A face of a 2D subregion (one of the first four [`Face`]s).
pub type Face2 = Face;
/// A face of a 3D subregion.
pub type Face3 = Face;

const FACES: [Face; 6] = [
    Face::West,
    Face::East,
    Face::South,
    Face::North,
    Face::Down,
    Face::Up,
];

impl Face {
    /// The faces of a rank-`rank` subregion in exchange order: the first
    /// `2·rank` faces.
    ///
    /// # Panics
    /// Panics if `rank > 3`.
    pub const fn of_rank(rank: usize) -> &'static [Face] {
        FACES.split_at(2 * rank).0
    }

    /// Position in exchange order (the face's byte on the wire).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The face at position `idx` of a rank-`rank` subregion, or `None` if
    /// such a subregion has no face there.
    #[inline]
    pub fn from_index(idx: usize, rank: usize) -> Option<Face> {
        Face::of_rank(rank).get(idx).copied()
    }

    /// Axis of the face: 0 = x, 1 = y, 2 = z.
    #[inline]
    pub fn axis(self) -> usize {
        self.index() / 2
    }

    /// −1 for the low side of the axis, +1 for the high side.
    #[inline]
    pub fn sign(self) -> isize {
        if self.index().is_multiple_of(2) {
            -1
        } else {
            1
        }
    }

    /// Exchange stage this face belongs to (its axis).
    #[inline]
    pub fn stage(self) -> usize {
        self.axis()
    }

    /// The face seen from the other side.
    #[inline]
    pub fn opposite(self) -> Face {
        FACES[self.index() ^ 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opposites_are_involutions() {
        for &f in Face::of_rank(3) {
            assert_eq!(f.opposite().opposite(), f);
            assert_eq!(f.axis(), f.opposite().axis());
            assert_eq!(f.sign(), -f.opposite().sign());
        }
    }

    #[test]
    fn stages_follow_axes() {
        assert_eq!(Face2::West.stage(), 0);
        assert_eq!(Face2::North.stage(), 1);
        assert_eq!(Face3::Up.stage(), 2);
    }

    #[test]
    fn deltas_match_signs() {
        // the tile across a face is one step along its axis, to its sign's side
        assert_eq!((Face2::East.axis(), Face2::East.sign()), (0, 1));
        assert_eq!((Face3::Down.axis(), Face3::Down.sign()), (2, -1));
    }

    #[test]
    fn ranks_take_the_leading_faces() {
        assert_eq!(
            Face::of_rank(2),
            [Face::West, Face::East, Face::South, Face::North]
        );
        assert_eq!(Face::of_rank(3).len(), 6);
        for (i, &f) in Face::of_rank(3).iter().enumerate() {
            assert_eq!(f.index(), i);
            assert_eq!(Face::from_index(i, 3), Some(f));
            assert_eq!(Face::from_index(i, 2), (i < 4).then_some(f));
        }
        assert_eq!(Face::from_index(6, 3), None);
        assert_eq!(Face::from_index(usize::MAX, 3), None);
    }
}
