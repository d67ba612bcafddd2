//! Variable-length rows in one flat array.

/// Variable-length rows stored in one flat array: row `i` is
/// `items[start[i]..start[i + 1]]`. The device keeps its per-node fanout,
/// per-site pin lists and per-pin driver lists this way: one allocation
/// each, not one per row.
#[derive(Debug)]
pub(crate) struct Rows<T> {
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy> Rows<T> {
    /// No rows; [`push_row`](Self::push_row) appends them.
    pub(crate) fn new() -> Self {
        Self {
            start: vec![0],
            items: Vec::new(),
        }
    }

    /// Groups the indices of `keys` into `row_count` rows by key (a counting
    /// sort): row `r` holds `item(i)` for every `i` with `keys[i] == r`, in
    /// increasing `i`. `item` is called only with indices of `keys`.
    pub(crate) fn group<K>(row_count: usize, keys: K, item: impl Fn(usize) -> T) -> Self
    where
        K: Iterator<Item = usize> + Clone,
    {
        let mut start = vec![0u32; row_count + 1];
        for key in keys.clone() {
            start[key + 1] += 1;
        }
        for row in 0..row_count {
            start[row + 1] += start[row];
        }
        let mut next = start[..row_count].to_vec();
        let mut items = match start[row_count] {
            0 => Vec::new(),
            len => vec![item(0); len as usize],
        };
        for (i, key) in keys.enumerate() {
            items[next[key] as usize] = item(i);
            next[key] += 1;
        }
        Self { start, items }
    }

    /// Appends a row.
    pub(crate) fn push_row(&mut self, row: impl IntoIterator<Item = T>) {
        self.items.extend(row);
        self.start.push(self.items.len() as u32);
    }

    /// Position of row `i`'s first item in the flat array: the rows' items
    /// are numbered consecutively, row by row.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn offset(&self, i: usize) -> usize {
        self.start[i] as usize
    }

    /// Row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn row(&self, i: usize) -> &[T] {
        &self.items[self.start[i] as usize..self.start[i + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouping_keeps_index_order_within_rows() {
        let rows = Rows::group(3, [2, 0, 2, 2, 0].into_iter(), |i| i * 10);
        assert_eq!(rows.row(0), [10, 40]);
        assert_eq!(rows.row(1), [] as [usize; 0]);
        assert_eq!(rows.row(2), [0, 20, 30]);
        // No keys: `item` is never called.
        let empty = Rows::group(2, std::iter::empty(), |i| [7][i]);
        assert_eq!(empty.row(1), [] as [i32; 0]);
    }
}
