//! Tile coordinates on the device grid.

use std::fmt;

/// A tile position on the device grid.
///
/// `x` grows to the east (column index), `y` grows to the north (row index).
/// Tile `(0, 0)` is the south-west corner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TileCoord {
    /// Column (0-based, west to east).
    pub x: u16,
    /// Row (0-based, south to north).
    pub y: u16,
}

impl TileCoord {
    /// Creates a coordinate.
    pub fn new(x: u16, y: u16) -> Self {
        Self { x, y }
    }

    /// Manhattan distance to another tile — the wirelength metric used by the
    /// placer and the router's A* heuristic.
    pub fn manhattan(self, other: TileCoord) -> u32 {
        let dx = (i32::from(self.x) - i32::from(other.x)).unsigned_abs();
        let dy = (i32::from(self.y) - i32::from(other.y)).unsigned_abs();
        dx + dy
    }

    /// The cardinal neighbours that lie within a `cols` × `rows` grid, in
    /// the order west, east, south, north. Allocates nothing.
    pub fn neighbors(self, cols: u16, rows: u16) -> impl Iterator<Item = TileCoord> {
        let Self { x, y } = self;
        [
            (x > 0).then(|| TileCoord::new(x - 1, y)),
            (x + 1 < cols).then(|| TileCoord::new(x + 1, y)),
            (y > 0).then(|| TileCoord::new(x, y - 1)),
            (y + 1 < rows).then(|| TileCoord::new(x, y + 1)),
        ]
        .into_iter()
        .flatten()
    }

    /// Returns `true` if the tile lies on the perimeter of a `cols` × `rows`
    /// grid (where the I/O blocks live).
    pub fn is_perimeter(self, cols: u16, rows: u16) -> bool {
        self.x == 0 || self.y == 0 || self.x + 1 == cols || self.y + 1 == rows
    }
}

impl fmt::Display for TileCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_distance() {
        let a = TileCoord::new(1, 2);
        let b = TileCoord::new(4, 0);
        assert_eq!(a.manhattan(b), 5);
        assert_eq!(b.manhattan(a), 5);
        assert_eq!(a.manhattan(a), 0);
    }

    #[test]
    fn neighbors_respect_grid_bounds() {
        let corner = TileCoord::new(0, 0);
        assert_eq!(corner.neighbors(4, 4).count(), 2);
        let center = TileCoord::new(1, 1);
        assert_eq!(
            center.neighbors(4, 4).collect::<Vec<_>>(),
            [(0, 1), (2, 1), (1, 0), (1, 2)].map(|(x, y)| TileCoord::new(x, y))
        );
        let edge = TileCoord::new(3, 1);
        assert_eq!(edge.neighbors(4, 4).count(), 3);
    }

    #[test]
    fn perimeter_detection() {
        assert!(TileCoord::new(0, 2).is_perimeter(5, 5));
        assert!(TileCoord::new(4, 2).is_perimeter(5, 5));
        assert!(TileCoord::new(2, 0).is_perimeter(5, 5));
        assert!(!TileCoord::new(2, 2).is_perimeter(5, 5));
    }
}
