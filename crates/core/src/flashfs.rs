//! A simulated persistent flash filesystem.
//!
//! The logger's files must survive reboots, kernel panics and battery
//! pulls — on the real phones they lived on internal flash. The model
//! is line-oriented (every logger record is one line) and tracks write
//! amplification so the heartbeat-period ablation can report the log
//! volume cost of faster detection.

/// Directory entries the first file creation makes room for: every
/// file a phone's logger writes fits, so the directory is allocated
/// once per phone.
const DIRECTORY_SLOTS: usize = 8;

/// An in-memory, reboot-persistent, line-oriented filesystem.
///
/// # Example
///
/// ```
/// use symfail_core::flashfs::FlashFs;
///
/// let mut fs = FlashFs::new();
/// fs.append_line("beats", "0|ALIVE");
/// fs.append_line("beats", "30000|ALIVE");
/// assert_eq!(fs.read_lines("beats").count(), 2);
/// assert_eq!(fs.last_line("beats"), Some("30000|ALIVE"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlashFs {
    /// `(name, content)` sorted by name. A phone writes a handful of
    /// files, so one equality scan finds a file faster than a tree
    /// lookup, and the hot append path does exactly one scan.
    files: Vec<(String, Vec<u8>)>,
    bytes_written: u64,
}

impl FlashFs {
    /// Creates an empty filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one line to `file`, creating it if needed. The newline
    /// is added by the filesystem; embedded newlines in `line` are
    /// rejected by debug assertion (records are single lines by
    /// construction).
    pub fn append_line(&mut self, file: &str, line: &str) {
        debug_assert!(!line.contains('\n'), "records must be single lines");
        let buf = self.file_mut(file);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.bytes_written += line.len() as u64 + 1;
    }

    /// Appends one line to `file` by letting `write` encode it
    /// directly into the file's own buffer — the zero-allocation twin
    /// of [`Self::append_line`] used by the logger's hot write paths.
    /// The newline is added afterwards and the wear counter advances by
    /// exactly the bytes appended.
    pub fn append_line_with(&mut self, file: &str, write: impl FnOnce(&mut Vec<u8>)) {
        let buf = self.file_mut(file);
        let start = buf.len();
        write(buf);
        debug_assert!(
            !buf[start..].contains(&b'\n'),
            "records must be single lines"
        );
        buf.push(b'\n');
        self.bytes_written += (buf.len() - start) as u64;
    }

    /// Iterator over the lines of `file` (empty for a missing file).
    pub fn read_lines(&self, file: &str) -> impl Iterator<Item = &str> {
        self.file(file)
            .map(|b| std::str::from_utf8(b).expect("flashfs content is UTF-8"))
            .unwrap_or("")
            .lines()
    }

    /// The last line of `file`, if the file exists and is non-empty —
    /// exactly `read_lines(file).last()`, but it scans back from the
    /// end of the buffer and UTF-8-checks only that line, so the
    /// boot-time heartbeat check costs the same on day 400 as on day 1.
    pub fn last_line(&self, file: &str) -> Option<&str> {
        let buf = self.file(file)?.as_slice();
        let body = buf.strip_suffix(b"\n").unwrap_or(buf);
        let start = body.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        // A '\n' is never inside a multi-byte sequence, so the tail is
        // a whole number of characters; `lines` then applies the same
        // `\r\n` rule to it that it applies to every line of the file.
        std::str::from_utf8(&buf[start..])
            .expect("flashfs content is UTF-8")
            .lines()
            .next()
    }

    /// Raw content of a file as bytes (borrowed; no copy).
    pub fn read_bytes(&self, file: &str) -> Option<&[u8]> {
        self.file(file).map(Vec::as_slice)
    }

    /// Replaces a file's raw content in place, without touching the
    /// wear counter. This is a damage hook — it models flash-level
    /// corruption of already-written bytes (bit rot, lost tail pages,
    /// interleaved blocks), not a logger write path. Creates the file
    /// if it does not exist.
    pub fn overwrite_raw(&mut self, file: &str, bytes: Vec<u8>) {
        *self.file_mut(file) = bytes;
    }

    /// True when the file exists.
    pub fn exists(&self, file: &str) -> bool {
        self.file(file).is_some()
    }

    /// Removes a file; returns true if it existed.
    pub fn remove(&mut self, file: &str) -> bool {
        self.position(file).map(|i| self.files.remove(i)).is_some()
    }

    /// Truncates a file to zero length, keeping it in the directory.
    pub fn truncate(&mut self, file: &str) {
        if let Some(i) = self.position(file) {
            self.files[i].1.clear();
        }
    }

    /// Names of all files, sorted.
    pub fn file_names(&self) -> Vec<&str> {
        self.files.iter().map(|(name, _)| name.as_str()).collect()
    }

    /// Size of a file in bytes (0 when missing).
    pub fn size_of(&self, file: &str) -> u64 {
        self.file(file).map(|b| b.len() as u64).unwrap_or(0)
    }

    /// Total bytes written over the filesystem's lifetime (the flash
    /// wear / log-volume metric; truncation does not reduce it).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Total current size across files.
    pub fn total_size(&self) -> u64 {
        self.files.iter().map(|(_, b)| b.len() as u64).sum()
    }

    /// Index of `file` in the directory.
    fn position(&self, file: &str) -> Option<usize> {
        self.files.iter().position(|(name, _)| name == file)
    }

    /// Content of `file`, if it exists.
    fn file(&self, file: &str) -> Option<&Vec<u8>> {
        self.position(file).map(|i| &self.files[i].1)
    }

    /// The buffer for `file`, creating it at its sorted place if needed
    /// — the name is allocated only then, never on the (overwhelmingly
    /// common) existing-file case.
    fn file_mut(&mut self, file: &str) -> &mut Vec<u8> {
        let i = self.position(file).unwrap_or_else(|| {
            if self.files.is_empty() {
                self.files.reserve(DIRECTORY_SLOTS);
            }
            let at = self.files.partition_point(|(name, _)| name.as_str() < file);
            self.files.insert(at, (file.to_string(), Vec::new()));
            at
        });
        &mut self.files[i].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_read() {
        let mut fs = FlashFs::new();
        fs.append_line("log", "a");
        fs.append_line("log", "b");
        let lines: Vec<&str> = fs.read_lines("log").collect();
        assert_eq!(lines, vec!["a", "b"]);
        assert_eq!(fs.last_line("log"), Some("b"));
    }

    #[test]
    fn missing_file_reads_empty() {
        let fs = FlashFs::new();
        assert_eq!(fs.read_lines("nope").count(), 0);
        assert_eq!(fs.last_line("nope"), None);
        assert!(!fs.exists("nope"));
        assert_eq!(fs.size_of("nope"), 0);
    }

    #[test]
    fn last_line_edge_cases_match_read_lines() {
        let mut fs = FlashFs::new();
        let cases: [(&str, &[u8], Option<&str>); 7] = [
            ("empty", b"", None),
            ("newline_only", b"\n", Some("")),
            ("no_trailing_newline", b"a\nbc", Some("bc")),
            ("blank_last_line", b"a\n\n", Some("")),
            ("crlf", b"a\r\nbc\r\n", Some("bc")),
            ("crlf_no_trailing_newline", b"a\r\nbc", Some("bc")),
            ("one_line", b"only\n", Some("only")),
        ];
        for (name, bytes, want) in cases {
            fs.overwrite_raw(name, bytes.to_vec());
            assert_eq!(fs.last_line(name), want, "{name}");
            assert_eq!(fs.last_line(name), fs.read_lines(name).last(), "{name}");
        }
        assert_eq!(fs.last_line("missing"), None);
    }

    #[test]
    fn truncate_keeps_file_and_wear_counter() {
        let mut fs = FlashFs::new();
        fs.append_line("beats", "0|ALIVE");
        let wear = fs.bytes_written();
        fs.truncate("beats");
        assert!(fs.exists("beats"));
        assert_eq!(fs.read_lines("beats").count(), 0);
        assert_eq!(fs.bytes_written(), wear, "wear counter survives truncation");
    }

    #[test]
    fn remove() {
        let mut fs = FlashFs::new();
        fs.append_line("x", "1");
        assert!(fs.remove("x"));
        assert!(!fs.remove("x"));
        assert!(!fs.exists("x"));
    }

    #[test]
    fn sizes_and_names() {
        let mut fs = FlashFs::new();
        fs.append_line("b", "22");
        fs.append_line("a", "1");
        assert_eq!(fs.file_names(), vec!["a", "b"]);
        assert_eq!(fs.size_of("b"), 3);
        assert_eq!(fs.total_size(), 5);
        assert_eq!(fs.bytes_written(), 5);
    }

    #[test]
    fn append_line_with_matches_append_line() {
        let mut a = FlashFs::new();
        let mut b = FlashFs::new();
        a.append_line("log", "hello|42");
        a.append_line("log", "");
        b.append_line_with("log", |buf| buf.extend_from_slice(b"hello|42"));
        b.append_line_with("log", |_| {});
        assert_eq!(a.read_bytes("log"), b.read_bytes("log"));
        assert_eq!(a.bytes_written(), b.bytes_written());
    }

    #[test]
    fn read_bytes_round_trip() {
        let mut fs = FlashFs::new();
        fs.append_line("f", "hello");
        assert_eq!(fs.read_bytes("f").unwrap(), b"hello\n");
        assert!(fs.read_bytes("missing").is_none());
    }

    #[test]
    fn overwrite_raw_replaces_content_without_wear() {
        let mut fs = FlashFs::new();
        fs.append_line("log", "pristine");
        let wear = fs.bytes_written();
        fs.overwrite_raw("log", b"pris".to_vec());
        assert_eq!(fs.read_bytes("log").unwrap(), b"pris");
        assert_eq!(fs.bytes_written(), wear, "damage is not a write");
        fs.overwrite_raw("new", b"x\n".to_vec());
        assert!(fs.exists("new"));
    }
}
