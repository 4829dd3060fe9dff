//! Sparse functional storage: actual bytes behind the timing model.
//!
//! Rows are allocated lazily (zero-filled) on first touch, so simulating a
//! 32 GiB memory system costs only what the workload touches. Storage is
//! optional — performance-only simulations skip it entirely.
//!
//! The row map is a `BTreeMap`, not a `HashMap`: anything enumerating
//! resident rows (footprint traces, [`Storage::touched_rows`]) must see
//! them in the same order on every run, or downstream reports stop being
//! byte-identical across machines and insertion orders.

use std::collections::BTreeMap;

/// Byte storage for one channel, keyed by (flat bank index, row).
#[derive(Debug, Clone, Default)]
pub struct Storage {
    row_bytes: usize,
    burst_bytes: usize,
    rows: BTreeMap<(usize, u32), Vec<u8>>,
}

impl Storage {
    /// Creates storage for rows of `columns × burst_bytes` bytes.
    pub fn new(columns: usize, burst_bytes: usize) -> Self {
        Self { row_bytes: columns * burst_bytes, burst_bytes, rows: BTreeMap::new() }
    }

    /// Number of rows touched so far (footprint tracking).
    pub fn resident_rows(&self) -> usize {
        self.rows.len()
    }

    /// Every (flat bank index, row) touched so far, in key order —
    /// deterministic regardless of the order the workload touched them.
    pub fn touched_rows(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.rows.keys().copied()
    }

    fn row_mut(&mut self, bank: usize, row: u32) -> &mut Vec<u8> {
        let row_bytes = self.row_bytes;
        self.rows.entry((bank, row)).or_insert_with(|| vec![0; row_bytes])
    }

    /// Reads one burst column. Untouched rows read as zeros.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range for the row size.
    pub fn read_col(&self, bank: usize, row: u32, col: u32) -> Vec<u8> {
        let off = col as usize * self.burst_bytes;
        assert!(off + self.burst_bytes <= self.row_bytes, "column {col} out of range");
        match self.rows.get(&(bank, row)) {
            Some(r) => r[off..off + self.burst_bytes].to_vec(),
            None => vec![0; self.burst_bytes],
        }
    }

    /// Writes one burst column.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range or `data` is not exactly one burst.
    pub fn write_col(&mut self, bank: usize, row: u32, col: u32, data: &[u8]) {
        assert_eq!(data.len(), self.burst_bytes, "burst size mismatch");
        let off = col as usize * self.burst_bytes;
        assert!(off + self.burst_bytes <= self.row_bytes, "column {col} out of range");
        let burst = self.burst_bytes;
        let r = self.row_mut(bank, row);
        r[off..off + burst].copy_from_slice(data);
    }

    /// Backdoor: copies `data` into consecutive columns starting at
    /// (`bank`, `row`, `col`), spilling into following rows of the same bank
    /// if needed. Used to initialise test arrays without paying simulation
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not burst-aligned.
    pub fn poke(&mut self, bank: usize, mut row: u32, mut col: u32, data: &[u8]) {
        assert_eq!(data.len() % self.burst_bytes, 0, "data must be burst-aligned");
        for chunk in data.chunks(self.burst_bytes) {
            self.write_col(bank, row, col, chunk);
            col += 1;
            if col as usize * self.burst_bytes >= self.row_bytes {
                col = 0;
                row += 1;
            }
        }
    }

    /// Backdoor: reads `len` bytes starting at (`bank`, `row`, `col`),
    /// following the same layout as [`Storage::poke`].
    ///
    /// # Panics
    ///
    /// Panics if `len` is not burst-aligned.
    pub fn peek(&self, bank: usize, mut row: u32, mut col: u32, len: usize) -> Vec<u8> {
        assert_eq!(len % self.burst_bytes, 0, "length must be burst-aligned");
        let mut out = Vec::with_capacity(len);
        for _ in 0..len / self.burst_bytes {
            out.extend_from_slice(&self.read_col(bank, row, col));
            col += 1;
            if col as usize * self.burst_bytes >= self.row_bytes {
                col = 0;
                row += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_reads_are_zero() {
        let s = Storage::new(128, 64);
        assert_eq!(s.read_col(0, 0, 0), vec![0u8; 64]);
        assert_eq!(s.resident_rows(), 0);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut s = Storage::new(128, 64);
        let data: Vec<u8> = (0..64).collect();
        s.write_col(3, 7, 11, &data);
        assert_eq!(s.read_col(3, 7, 11), data);
        // Neighbouring column untouched.
        assert_eq!(s.read_col(3, 7, 12), vec![0u8; 64]);
        assert_eq!(s.resident_rows(), 1);
    }

    #[test]
    fn poke_peek_spill_across_rows() {
        let mut s = Storage::new(2, 64); // tiny 2-column rows
        let data: Vec<u8> = (0..=255).collect(); // 4 bursts = 2 rows
        s.poke(0, 10, 0, &data);
        assert_eq!(s.peek(0, 10, 0, 256), data);
        assert_eq!(s.resident_rows(), 2);
    }

    #[test]
    fn touched_rows_order_is_insertion_independent() {
        // The footprint enumeration must not depend on touch order (the
        // old HashMap-backed map leaked insertion/hash order here).
        let keys = [(3usize, 7u32), (0, 9), (2, 1), (0, 2), (3, 0)];
        let mut fwd = Storage::new(4, 64);
        for &(b, r) in &keys {
            fwd.write_col(b, r, 0, &[1u8; 64]);
        }
        let mut rev = Storage::new(4, 64);
        for &(b, r) in keys.iter().rev() {
            rev.write_col(b, r, 0, &[1u8; 64]);
        }
        let f: Vec<_> = fwd.touched_rows().collect();
        let r: Vec<_> = rev.touched_rows().collect();
        assert_eq!(f, r);
        assert_eq!(f, vec![(0, 2), (0, 9), (2, 1), (3, 0), (3, 7)], "sorted key order");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn column_bounds_checked() {
        let s = Storage::new(4, 64);
        s.read_col(0, 0, 4);
    }

    #[test]
    #[should_panic(expected = "burst size mismatch")]
    fn burst_size_checked() {
        let mut s = Storage::new(4, 64);
        s.write_col(0, 0, 0, &[0u8; 32]);
    }
}
