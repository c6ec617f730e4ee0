//! Heap-file row storage on fixed-size pages.
//!
//! Each table is a list of page ids. A page payload holds a small header
//! (`u32` used bytes, `u16` row count) followed by length-prefixed encoded
//! rows. Bulk loads buffer whole pages in memory before writing — one page
//! write per filled page — while single-row appends read-modify-write the
//! tail page, like SQLite's append path.

use crate::schema::Row;
use crate::value::encode_value;
use crate::{Result, SqlError};
use ironsafe_storage::pager::{PageId, Pager};
use parking_lot::Mutex;
use std::sync::Arc;

/// Shared, lockable pager handle used across operators.
pub type SharedPager = Arc<Mutex<dyn Pager + Send>>;

/// Wrap a pager for shared use.
pub fn shared<P: Pager + Send + 'static>(pager: P) -> SharedPager {
    Arc::new(Mutex::new(pager))
}

const HEADER: usize = 6; // u32 used + u16 nrows

/// A table's page list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeapFile {
    /// Pages owned by this heap, in order.
    pub pages: Vec<PageId>,
    /// Total rows stored.
    pub row_count: u64,
}

fn encode_row(row: &Row) -> Vec<u8> {
    let mut buf = Vec::with_capacity(row.len() * 12);
    for v in row {
        encode_value(v, &mut buf);
    }
    buf
}

/// Walk the encoded records of a heap-page payload, handing each
/// record's encoded bytes to `visit`. This is the **one** page codec:
/// every decode view — scratch-row scan ([`scan_page_rows`]), owned-row
/// decode ([`decode_page_rows`]), columnar decode
/// ([`scan_page_columns`]) — shares these bounds checks. The header is
/// attacker-controlled on a tampered medium, so every field is bounded
/// before any slicing; corruption is an error, never a panic.
pub fn for_each_record(payload: &[u8], mut visit: impl FnMut(&[u8]) -> Result<()>) -> Result<()> {
    if payload.len() < HEADER {
        return Err(SqlError::Eval("corrupt heap page: shorter than header".into()));
    }
    let used = u32::from_be_bytes(payload[0..4].try_into().expect("4")) as usize;
    let nrows = u16::from_be_bytes(payload[4..6].try_into().expect("2")) as usize;
    if used < HEADER || used > payload.len() {
        return Err(SqlError::Eval("corrupt heap page: used bytes out of bounds".into()));
    }
    let mut pos = HEADER;
    for _ in 0..nrows {
        if pos + 4 > used {
            return Err(SqlError::Eval("corrupt heap page: truncated record header".into()));
        }
        let len = u32::from_be_bytes(payload[pos..pos + 4].try_into().expect("4")) as usize;
        pos += 4;
        let end = pos + len;
        if end > used {
            return Err(SqlError::Eval("corrupt heap page: record overruns page".into()));
        }
        visit(&payload[pos..end])?;
        pos = end;
    }
    Ok(())
}

/// Decode one encoded record into `ncols` values via `push`, rejecting
/// trailing bytes (a record that decodes short or long is corrupt).
fn decode_record(
    record: &[u8],
    ncols: usize,
    mut push: impl FnMut(crate::value::RawValue<'_>) -> Result<()>,
) -> Result<()> {
    let mut vpos = 0;
    for _ in 0..ncols {
        push(crate::value::decode_value_raw(record, &mut vpos)?)?;
    }
    if vpos != record.len() {
        return Err(SqlError::Eval("corrupt heap page: record length mismatch".into()));
    }
    Ok(())
}

/// Walk every row of an encoded heap-page payload, reusing `scratch`
/// for the decoded values so a full-page scan performs no per-row `Vec`
/// allocation. The visitor borrows each row only until it returns;
/// callers keep survivors by cloning (the morsel scanner's filter path
/// clones only rows that pass the predicate).
pub fn scan_page_rows(
    payload: &[u8],
    ncols: usize,
    scratch: &mut Row,
    mut visit: impl FnMut(&Row) -> Result<()>,
) -> Result<()> {
    for_each_record(payload, |record| {
        scratch.clear();
        decode_record(record, ncols, |raw| {
            scratch.push(raw.to_value());
            Ok(())
        })?;
        visit(&*scratch)
    })
}

/// Decode every row of an encoded heap-page payload into freshly
/// allocated rows. Public for the codec benchmarks, which compare it
/// against the allocation-free [`scan_page_rows`] path.
pub fn decode_page_rows(payload: &[u8], ncols: usize) -> Result<Vec<Row>> {
    let mut rows = Vec::new();
    let mut scratch: Row = Vec::with_capacity(ncols);
    scan_page_rows(payload, ncols, &mut scratch, |row| {
        rows.push(row.clone());
        Ok(())
    })?;
    Ok(rows)
}

/// Columnar decode view: append every row of an encoded heap-page
/// payload to `batch`, cell by cell into typed column vectors. Same
/// codec and bounds checks as [`scan_page_rows`] (both ride
/// [`for_each_record`]); text cells go straight into the batch's byte
/// arena without a per-cell `String`.
pub fn scan_page_columns(
    payload: &[u8],
    ncols: usize,
    batch: &mut crate::batch::ColumnBatch,
) -> Result<()> {
    debug_assert_eq!(batch.width(), ncols);
    for_each_record(payload, |record| {
        let mut col = 0;
        decode_record(record, ncols, |raw| {
            batch.push_cell(col, raw);
            col += 1;
            Ok(())
        })?;
        batch.finish_row()
    })
}

impl HeapFile {
    /// An empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pages.
    pub fn page_count(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Append many rows, buffering page-at-a-time.
    pub fn append_rows<I>(&mut self, pager: &SharedPager, rows: I) -> Result<()>
    where
        I: IntoIterator<Item = Row>,
    {
        let mut pager = pager.lock();
        let payload_size = pager.payload_size();
        let mut page = vec![0u8; payload_size];
        let mut used = HEADER;
        let mut nrows: u16 = 0;
        // Start by loading the tail page if it has room.
        let mut tail_page: Option<PageId> = self.pages.last().copied();
        if let Some(id) = tail_page {
            pager.read_page(id, &mut page)?;
            used = u32::from_be_bytes(page[0..4].try_into().expect("4")) as usize;
            nrows = u16::from_be_bytes(page[4..6].try_into().expect("2"));
        }
        let flush = |pager: &mut dyn Pager, page: &mut [u8], id: PageId, used: usize, nrows: u16| -> Result<()> {
            page[0..4].copy_from_slice(&(used as u32).to_be_bytes());
            page[4..6].copy_from_slice(&nrows.to_be_bytes());
            pager.write_page(id, page)?;
            Ok(())
        };
        for row in rows {
            let rec = encode_row(&row);
            if rec.len() + 4 > payload_size - HEADER {
                return Err(SqlError::Eval(format!(
                    "row of {} bytes exceeds page payload",
                    rec.len()
                )));
            }
            if used + 4 + rec.len() > payload_size || nrows == u16::MAX {
                // Flush current page and start a new one.
                if let Some(id) = tail_page {
                    flush(&mut *pager, &mut page, id, used, nrows)?;
                }
                tail_page = Some(pager.allocate_page()?);
                page.iter_mut().for_each(|b| *b = 0);
                used = HEADER;
                nrows = 0;
                if self.pages.last() != tail_page.as_ref() {
                    self.pages.push(tail_page.expect("just set"));
                }
            } else if tail_page.is_none() {
                tail_page = Some(pager.allocate_page()?);
                self.pages.push(tail_page.expect("just set"));
            }
            page[used..used + 4].copy_from_slice(&(rec.len() as u32).to_be_bytes());
            page[used + 4..used + 4 + rec.len()].copy_from_slice(&rec);
            used += 4 + rec.len();
            nrows += 1;
            self.row_count += 1;
        }
        if let Some(id) = tail_page {
            flush(&mut *pager, &mut page, id, used, nrows)?;
        }
        Ok(())
    }

    /// Append one row.
    pub fn append_row(&mut self, pager: &SharedPager, row: Row) -> Result<()> {
        self.append_rows(pager, std::iter::once(row))
    }

    /// Read every row of one page.
    pub fn read_page_rows(&self, pager: &SharedPager, page_index: usize, ncols: usize) -> Result<Vec<Row>> {
        let id = *self
            .pages
            .get(page_index)
            .ok_or_else(|| SqlError::Eval(format!("heap page index {page_index} out of range")))?;
        let mut pager = pager.lock();
        let mut payload = vec![0u8; pager.payload_size()];
        pager.read_page(id, &mut payload)?;
        decode_page_rows(&payload, ncols)
    }

    /// Materialize all rows (test/debug convenience; scans stream instead).
    pub fn all_rows(&self, pager: &SharedPager, ncols: usize) -> Result<Vec<Row>> {
        let mut out = Vec::with_capacity(self.row_count as usize);
        for i in 0..self.pages.len() {
            out.extend(self.read_page_rows(pager, i, ncols)?);
        }
        Ok(out)
    }

    /// Page-stable in-place edit of the heap's rows (UPDATE / DELETE).
    ///
    /// `edit` sees each page's rows in order and may change, drop or
    /// keep them; it returns whether it touched that page. Every page is
    /// visited before anything is written, so an `edit` error leaves the
    /// heap untouched. Then only the touched pages are re-encoded and
    /// written; every other page keeps its bytes, and every row keeps
    /// its page:
    ///
    /// * A page whose edited rows no longer fit keeps the longest prefix
    ///   that does and spills the rest, in order, onto the front of the
    ///   following page when they all fit there, else into fresh pages
    ///   linked in right after it.
    /// * A page left with no rows is zeroed (stale rows become
    ///   unreachable) and dropped from the page list.
    ///
    /// Row order across the heap is exactly the edited rows in order.
    pub fn edit_rows(
        &mut self,
        pager: &SharedPager,
        ncols: usize,
        mut edit: impl FnMut(&mut Vec<Row>) -> Result<bool>,
    ) -> Result<()> {
        let mut pager = pager.lock();
        let payload_size = pager.payload_size();
        let mut payload = vec![0u8; payload_size];
        // (page index, rows before, encoded rows after) per touched page.
        let mut touched: Vec<(usize, usize, Vec<Vec<u8>>)> = Vec::new();
        for (i, &id) in self.pages.iter().enumerate() {
            pager.read_page(id, &mut payload)?;
            let mut rows = decode_page_rows(&payload, ncols)?;
            let before = rows.len();
            if edit(&mut rows)? {
                let records = rows.iter().map(encode_row).collect::<Vec<_>>();
                if let Some(rec) = records.iter().find(|r| r.len() + 4 > payload_size - HEADER) {
                    return Err(SqlError::Eval(format!(
                        "row of {} bytes exceeds page payload",
                        rec.len()
                    )));
                }
                touched.push((i, before, records));
            }
        }

        // The heap's bookkeeping changes only once every write succeeded.
        let mut pages = Vec::with_capacity(self.pages.len());
        let mut row_count = self.row_count;
        let mut touched = touched.into_iter().peekable();
        // Encoded rows spilled off the previous page, in order.
        let mut spill: Vec<Vec<u8>> = Vec::new();
        for (i, &id) in self.pages.iter().enumerate() {
            let mut records = match touched.next_if(|(t, _, _)| *t == i) {
                Some((_, before, records)) => {
                    row_count = row_count - before as u64 + records.len() as u64;
                    records
                }
                None if spill.is_empty() => {
                    pages.push(id);
                    continue;
                }
                None => {
                    // An untouched page takes the spill only if all of it
                    // fits; otherwise the spill gets pages of its own.
                    pager.read_page(id, &mut payload)?;
                    let mut records = Vec::new();
                    for_each_record(&payload, |r| {
                        records.push(r.to_vec());
                        Ok(())
                    })?;
                    if !fits(spill.iter().chain(&records), payload_size) {
                        spill_to_fresh_pages(&mut *pager, &spill, &mut payload, &mut pages)?;
                        spill.clear();
                        pages.push(id);
                        continue;
                    }
                    records
                }
            };
            if !spill.is_empty() {
                spill.append(&mut records);
                records = std::mem::take(&mut spill);
            }
            let kept = fill_page(&mut payload, &records);
            spill = records.split_off(kept);
            if kept == 0 {
                // Left empty: zeroed so its stale rows are unreachable,
                // and dropped from the heap.
                payload.fill(0);
            } else {
                pages.push(id);
            }
            pager.write_page(id, &payload)?;
        }
        spill_to_fresh_pages(&mut *pager, &spill, &mut payload, &mut pages)?;
        self.pages = pages;
        self.row_count = row_count;
        Ok(())
    }
}

/// Write `spill` into freshly allocated pages appended to `pages`.
fn spill_to_fresh_pages(
    pager: &mut dyn Pager,
    mut spill: &[Vec<u8>],
    payload: &mut [u8],
    pages: &mut Vec<PageId>,
) -> Result<()> {
    while !spill.is_empty() {
        let kept = fill_page(payload, spill);
        let id = pager.allocate_page()?;
        pager.write_page(id, payload)?;
        pages.push(id);
        spill = &spill[kept..];
    }
    Ok(())
}

/// Whether `records` fit one page payload of `payload_size` bytes.
fn fits<'a>(records: impl Iterator<Item = &'a Vec<u8>>, payload_size: usize) -> bool {
    let (mut used, mut nrows) = (HEADER, 0usize);
    for rec in records {
        used += 4 + rec.len();
        nrows += 1;
    }
    used <= payload_size && nrows <= u16::MAX as usize
}

/// Encode the longest prefix of `records` that fits into `payload`
/// (zeroed first); returns how many were taken. Every record is known
/// to fit an empty page, so a non-empty input takes at least one.
fn fill_page(payload: &mut [u8], records: &[Vec<u8>]) -> usize {
    payload.fill(0);
    let mut used = HEADER;
    let mut nrows = 0usize;
    for rec in records {
        if used + 4 + rec.len() > payload.len() || nrows == u16::MAX as usize {
            break;
        }
        payload[used..used + 4].copy_from_slice(&(rec.len() as u32).to_be_bytes());
        payload[used + 4..used + 4 + rec.len()].copy_from_slice(rec);
        used += 4 + rec.len();
        nrows += 1;
    }
    payload[0..4].copy_from_slice(&(used as u32).to_be_bytes());
    payload[4..6].copy_from_slice(&(nrows as u16).to_be_bytes());
    nrows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use ironsafe_storage::pager::PlainPager;

    fn pager() -> SharedPager {
        shared(PlainPager::new())
    }

    fn row(i: i64) -> Row {
        vec![Value::Int(i), Value::Text(format!("row-{i}")), Value::Float(i as f64 / 2.0)]
    }

    #[test]
    fn append_and_scan_roundtrip() {
        let p = pager();
        let mut heap = HeapFile::new();
        heap.append_rows(&p, (0..100).map(row)).unwrap();
        assert_eq!(heap.row_count, 100);
        let rows = heap.all_rows(&p, 3).unwrap();
        assert_eq!(rows.len(), 100);
        assert_eq!(rows[42], row(42));
    }

    #[test]
    fn spans_multiple_pages() {
        let p = pager();
        let mut heap = HeapFile::new();
        // Rows with ~500-byte strings force several per-page boundaries.
        let big = |i: i64| vec![Value::Int(i), Value::Text("x".repeat(500))];
        heap.append_rows(&p, (0..50).map(big)).unwrap();
        assert!(heap.page_count() > 1, "got {} pages", heap.page_count());
        let rows = heap.all_rows(&p, 2).unwrap();
        assert_eq!(rows.len(), 50);
        assert_eq!(rows[49][0], Value::Int(49));
    }

    #[test]
    fn single_row_appends_continue_tail_page() {
        let p = pager();
        let mut heap = HeapFile::new();
        for i in 0..10 {
            heap.append_row(&p, row(i)).unwrap();
        }
        assert_eq!(heap.page_count(), 1, "small rows share one page");
        assert_eq!(heap.all_rows(&p, 3).unwrap().len(), 10);
    }

    #[test]
    fn oversized_row_rejected() {
        let p = pager();
        let mut heap = HeapFile::new();
        let huge = vec![Value::Text("y".repeat(10_000))];
        assert!(heap.append_row(&p, huge).is_err());
    }

    fn big(i: i64) -> Row {
        vec![Value::Int(i), Value::Text("x".repeat(500))]
    }

    /// Raw payload of every page, for byte-stability checks.
    fn page_bytes(p: &SharedPager, heap: &HeapFile) -> Vec<Vec<u8>> {
        let mut p = p.lock();
        heap.pages
            .iter()
            .map(|&id| {
                let mut buf = vec![0u8; p.payload_size()];
                p.read_page(id, &mut buf).unwrap();
                buf
            })
            .collect()
    }

    #[test]
    fn rewrite_shrinks_and_reuses_pages() {
        let p = pager();
        let mut heap = HeapFile::new();
        heap.append_rows(&p, (0..50).map(big)).unwrap();
        let pages_before = p.lock().num_pages();

        // Delete all but 3 rows: emptied pages drop out, none is allocated.
        heap.edit_rows(&p, 2, |rows| {
            let n = rows.len();
            rows.retain(|r| matches!(r[0], Value::Int(i) if i < 3));
            Ok(rows.len() != n)
        })
        .unwrap();
        assert_eq!(heap.row_count, 3);
        assert_eq!(heap.all_rows(&p, 2).unwrap(), (0..3).map(big).collect::<Vec<_>>());
        assert_eq!(heap.page_count(), 1);
        assert_eq!(p.lock().num_pages(), pages_before, "no new pages allocated");
    }

    #[test]
    fn rewrite_grows_when_needed() {
        let p = pager();
        let mut heap = HeapFile::new();
        heap.append_rows(&p, (0..5).map(row)).unwrap();
        assert_eq!(heap.page_count(), 1);
        heap.edit_rows(&p, 3, |rows| {
            for r in rows.iter_mut() {
                r[1] = Value::Text("x".repeat(1500));
            }
            Ok(true)
        })
        .unwrap();
        let rows = heap.all_rows(&p, 3).unwrap();
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().enumerate().all(|(i, r)| r[0] == Value::Int(i as i64)), "order kept");
        assert!(heap.page_count() > 1);
        assert_eq!(heap.row_count, 5);
    }

    #[test]
    fn untouched_pages_keep_their_bytes() {
        let p = pager();
        let mut heap = HeapFile::new();
        heap.append_rows(&p, (0..50).map(big)).unwrap();
        let before = page_bytes(&p, &heap);
        let writes = p.lock().stats().page_writes;
        heap.edit_rows(&p, 2, |rows| {
            let hit = rows.iter_mut().find(|r| r[0] == Value::Int(20));
            Ok(hit.map(|r| r[1] = Value::Text("y".repeat(500))).is_some())
        })
        .unwrap();
        assert_eq!(p.lock().stats().page_writes - writes, 1, "one page re-encoded");
        let after = page_bytes(&p, &heap);
        let changed: Vec<usize> = (0..before.len()).filter(|&i| before[i] != after[i]).collect();
        assert_eq!(changed.len(), 1);
        assert_eq!(heap.all_rows(&p, 2).unwrap()[20][1], Value::Text("y".repeat(500)));
    }

    #[test]
    fn grown_row_spills_in_order() {
        let p = pager();
        let mut heap = HeapFile::new();
        heap.append_rows(&p, (0..50).map(big)).unwrap();
        let n_pages = heap.page_count();
        let mut model = heap.all_rows(&p, 2).unwrap();
        // Grow row 1 on the (full) first page: its tail spills into a
        // fresh page linked in right after it, because page 2 is full too.
        let grow = |rows: &mut Vec<Row>| {
            let hit = rows.iter_mut().find(|r| r[0] == Value::Int(1));
            Ok(hit.map(|r| r[1] = Value::Text("z".repeat(2000))).is_some())
        };
        heap.edit_rows(&p, 2, grow).unwrap();
        grow(&mut model).unwrap();
        assert_eq!(heap.all_rows(&p, 2).unwrap(), model, "row order kept");
        assert_eq!(heap.page_count(), n_pages + 1);

        // Make room on the page after the first one; the next spill off
        // the first page lands there instead of on a fresh page.
        let second_first_row = heap.read_page_rows(&p, 1, 2).unwrap()[0][0].clone();
        let free = |rows: &mut Vec<Row>| {
            let n = rows.len();
            rows.retain(|r| r[0] != second_first_row);
            Ok(rows.len() != n)
        };
        heap.edit_rows(&p, 2, free).unwrap();
        free(&mut model).unwrap();
        let pages = heap.page_count();
        let grow0 = |rows: &mut Vec<Row>| {
            let hit = rows.iter_mut().find(|r| r[0] == Value::Int(0));
            Ok(hit.map(|r| r[1] = Value::Text("w".repeat(1200))).is_some())
        };
        heap.edit_rows(&p, 2, grow0).unwrap();
        grow0(&mut model).unwrap();
        assert_eq!(heap.all_rows(&p, 2).unwrap(), model);
        assert_eq!(heap.page_count(), pages, "spill absorbed by the following page");
        assert_eq!(heap.row_count, model.len() as u64);
    }

    #[test]
    fn failed_edit_writes_nothing() {
        let p = pager();
        let mut heap = HeapFile::new();
        heap.append_rows(&p, (0..50).map(big)).unwrap();
        let (snapshot, writes) = (heap.clone(), p.lock().stats().page_writes);
        let mut seen = 0;
        let err = heap.edit_rows(&p, 2, |rows| {
            seen += 1;
            if seen == 3 {
                return Err(SqlError::Eval("boom".into()));
            }
            rows.clear();
            Ok(true)
        });
        assert!(err.is_err());
        assert_eq!(heap, snapshot);
        assert_eq!(p.lock().stats().page_writes, writes);
    }

    #[test]
    fn empty_heap_scans_empty() {
        let p = pager();
        let heap = HeapFile::new();
        assert!(heap.all_rows(&p, 3).unwrap().is_empty());
    }

    #[test]
    fn null_values_roundtrip() {
        let p = pager();
        let mut heap = HeapFile::new();
        heap.append_row(&p, vec![Value::Null, Value::Int(1), Value::Null]).unwrap();
        let rows = heap.all_rows(&p, 3).unwrap();
        assert!(rows[0][0].is_null());
        assert!(rows[0][2].is_null());
    }

    #[test]
    fn corrupt_used_field_is_an_error_not_a_panic() {
        // `used` far beyond the page must error cleanly, not slice-panic.
        let mut payload = vec![0u8; 256];
        payload[0..4].copy_from_slice(&100_000u32.to_be_bytes());
        payload[4..6].copy_from_slice(&5u16.to_be_bytes());
        assert!(matches!(decode_page_rows(&payload, 3), Err(SqlError::Eval(_))));
        // `used` smaller than the header is equally invalid.
        payload[0..4].copy_from_slice(&2u32.to_be_bytes());
        assert!(matches!(decode_page_rows(&payload, 3), Err(SqlError::Eval(_))));
        // A payload shorter than the header cannot be decoded at all.
        assert!(matches!(decode_page_rows(&[0u8; 3], 1), Err(SqlError::Eval(_))));
    }

    #[test]
    fn scratch_scan_visits_same_rows_as_decode() {
        let p = pager();
        let mut heap = HeapFile::new();
        heap.append_rows(&p, (0..40).map(row)).unwrap();
        let mut payload = vec![0u8; p.lock().payload_size()];
        p.lock().read_page(heap.pages[0], &mut payload).unwrap();
        let decoded = decode_page_rows(&payload, 3).unwrap();
        let mut visited = Vec::new();
        let mut scratch = Vec::new();
        scan_page_rows(&payload, 3, &mut scratch, |r| {
            visited.push(r.clone());
            Ok(())
        })
        .unwrap();
        assert_eq!(visited, decoded);
    }

    #[test]
    fn works_over_secure_pager() {
        use ironsafe_crypto::group::Group;
        use ironsafe_storage::SecurePager;
        use ironsafe_tee::trustzone::Manufacturer;
        use rand::SeedableRng;
        let group = Group::modp_1024();
        let mfr = Manufacturer::from_seed(&group, b"acme");
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let dev = mfr.make_device("s0", 8, &mut rng);
        let p = shared(SecurePager::create(dev, 42).unwrap());
        let mut heap = HeapFile::new();
        heap.append_rows(&p, (0..200).map(row)).unwrap();
        let rows = heap.all_rows(&p, 3).unwrap();
        assert_eq!(rows.len(), 200);
        assert_eq!(rows[123], row(123));
        let stats = p.lock().stats();
        assert!(stats.encrypts > 0);
        assert!(stats.decrypts > 0);
    }
}
