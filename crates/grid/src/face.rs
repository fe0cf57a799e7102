//! Faces of rectangular subregions and the staged exchange order.
//!
//! Halo exchange proceeds in one stage per axis (x first, then y, then z).
//! A stage's strips span the *already exchanged* axes in full, including their
//! ghost layers, so corner and edge ghosts are filled transitively without any
//! diagonal messages. This matches the paper's communication structure, where
//! each subregion talks only to its face neighbours.

/// A face of a 2D subregion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Face2 {
    /// Negative-x neighbour.
    West,
    /// Positive-x neighbour.
    East,
    /// Negative-y neighbour.
    South,
    /// Positive-y neighbour.
    North,
}

impl Face2 {
    /// All four faces in exchange order (x stage before y stage).
    pub const ALL: [Face2; 4] = [Face2::West, Face2::East, Face2::South, Face2::North];

    /// The face seen from the other side.
    pub fn opposite(self) -> Face2 {
        match self {
            Face2::West => Face2::East,
            Face2::East => Face2::West,
            Face2::South => Face2::North,
            Face2::North => Face2::South,
        }
    }

    /// Axis of the face: 0 = x, 1 = y.
    pub fn axis(self) -> usize {
        match self {
            Face2::West | Face2::East => 0,
            Face2::South | Face2::North => 1,
        }
    }

    /// −1 for the low side of the axis, +1 for the high side.
    pub fn sign(self) -> isize {
        match self {
            Face2::West | Face2::South => -1,
            Face2::East | Face2::North => 1,
        }
    }

    /// Exchange stage this face belongs to (its axis).
    pub fn stage(self) -> usize {
        self.axis()
    }

    /// Offset `(dx, dy)` to the neighbouring tile across this face.
    pub fn delta(self) -> (isize, isize) {
        match self {
            Face2::West => (-1, 0),
            Face2::East => (1, 0),
            Face2::South => (0, -1),
            Face2::North => (0, 1),
        }
    }
}

/// A face of a 3D subregion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Face3 {
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

impl Face3 {
    /// All six faces in exchange order (x, then y, then z stage).
    pub const ALL: [Face3; 6] = [
        Face3::West,
        Face3::East,
        Face3::South,
        Face3::North,
        Face3::Down,
        Face3::Up,
    ];

    /// The face seen from the other side.
    pub fn opposite(self) -> Face3 {
        match self {
            Face3::West => Face3::East,
            Face3::East => Face3::West,
            Face3::South => Face3::North,
            Face3::North => Face3::South,
            Face3::Down => Face3::Up,
            Face3::Up => Face3::Down,
        }
    }

    /// Axis of the face: 0 = x, 1 = y, 2 = z.
    pub fn axis(self) -> usize {
        match self {
            Face3::West | Face3::East => 0,
            Face3::South | Face3::North => 1,
            Face3::Down | Face3::Up => 2,
        }
    }

    /// −1 for the low side of the axis, +1 for the high side.
    pub fn sign(self) -> isize {
        match self {
            Face3::West | Face3::South | Face3::Down => -1,
            Face3::East | Face3::North | Face3::Up => 1,
        }
    }

    /// Exchange stage this face belongs to (its axis).
    pub fn stage(self) -> usize {
        self.axis()
    }

    /// Offset `(dx, dy, dz)` to the neighbouring tile across this face.
    pub fn delta(self) -> (isize, isize, isize) {
        match self {
            Face3::West => (-1, 0, 0),
            Face3::East => (1, 0, 0),
            Face3::South => (0, -1, 0),
            Face3::North => (0, 1, 0),
            Face3::Down => (0, 0, -1),
            Face3::Up => (0, 0, 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opposites_are_involutions() {
        for f in Face2::ALL {
            assert_eq!(f.opposite().opposite(), f);
            assert_eq!(f.axis(), f.opposite().axis());
            assert_eq!(f.sign(), -f.opposite().sign());
        }
        for f in Face3::ALL {
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
        assert_eq!(Face2::East.delta(), (1, 0));
        assert_eq!(Face3::Down.delta(), (0, 0, -1));
    }
}
