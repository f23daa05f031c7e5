//! The binary segmented event log: [`BinaryLogBackend`].
//!
//! A second on-disk format behind [`crate::storage::StorageBackend`],
//! built for raw replay speed and whole-log corruption detection. Where
//! [`crate::storage::EventLogBackend`] writes one JSON line per event
//! (human-friendly, parse- and allocation-bound on replay, torn-tail
//! detection by line heuristic), this backend writes length-prefixed
//! binary *frames* into fixed-size *segment* files:
//!
//! ```text
//! frame := len:u32le  check:u32le  crc:u32le  payload[len]
//!          check = len XOR 0xA5A5_5A5A   (self-verifying header)
//!          crc   = CRC-32 (IEEE) of payload
//! ```
//!
//! * Any single corrupted byte anywhere in a complete log is detected:
//!   a flip in the header fails the `check` mask, a flip in the payload
//!   (or the stored CRC) fails the CRC, and either surfaces as the typed
//!   [`RepoError::CorruptFrame`] — never a silent skip, never a panic.
//! * A *torn tail* — fewer bytes than one whole frame promises, at the
//!   very end of the last segment — is what a crash mid-`write` leaves.
//!   It is not corruption: readers stop cleanly before it and the writer
//!   truncates it at open, exactly the JSONL backend's contract.
//! * Replay is one buffered read per segment plus an in-place frame
//!   scan: no line splitting, no intermediate `String`s, no serde.
//!
//! A log *generation* is the logical unit the checkpoint manifest names
//! (`events-<n>.bin`); on disk it is a run of segment files
//! `events-<n>.bin.000000`, `events-<n>.bin.000001`, … each at most
//! [`BinaryLogBackend::DEFAULT_SEGMENT_BYTES`] long (frames never span
//! segments). Only the last segment is ever appended to, so replicas
//! tail a generation by *global* byte offset — the sum of the sealed
//! segments plus the position in the live one — and an unchanged log
//! costs only a metadata stat to poll.
//!
//! The manifest (`checkpoint.json`) is shared with the JSONL backend —
//! deliberately, so one directory format serves both and
//! [`crate::storage::EventLogBackend::restore_dir`], the `bx_lint` CLI,
//! [`crate::replica::Replica`] and federations dispatch on the generation
//! name's extension alone.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::error::RepoError;
use crate::event::{replay, RepoEvent};
use crate::repo::RepositorySnapshot;
use crate::storage::{DurabilityMode, EventLogBackend, Manifest, StorageBackend, TailRepaired};
use crate::template::{
    Artefact, ArtefactKind, Comment, ExampleEntry, ExampleType, Reference, RestorationSpec,
    VariantPoint,
};
use crate::version::Version;

use bx_theory::{Claim, Polarity, Property};

/// The XOR mask making a frame header self-verifying: a header is valid
/// iff its second word equals `len ^ LEN_MASK`, so a bit flip in either
/// word is caught before `len` is trusted to index anything.
const LEN_MASK: u32 = 0xA5A5_5A5A;

/// Frame header size: `len`, `check`, `crc`, each `u32` little-endian.
const FRAME_HEADER: usize = 12;

/// Generation names of this format end in `.bin` (vs `.jsonl`).
pub const BIN_SUFFIX: &str = ".bin";

/// Whether a generation name (from a checkpoint manifest or
/// [`crate::storage::EventLogBackend::read_state_in`]) names a binary
/// segmented log rather than a JSONL one.
pub fn is_binary_generation(name: &str) -> bool {
    name.ends_with(BIN_SUFFIX)
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected) — slicing-by-8, tables built at
// compile time. The checksum runs over every payload byte on both the
// write and the replay path, so its throughput bounds cold restore; the
// eight-table variant processes 8 bytes per step instead of 1.
// ---------------------------------------------------------------------

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// CRC-32 (IEEE) of `bytes` — the per-frame payload checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------
// Event codec: a hand-rolled, schema-stable binary form of RepoEvent.
// ---------------------------------------------------------------------
//
// The vendored serde stand-ins only target JSON, so the binary payload
// format is written out by hand: little-endian fixed-width integers,
// `u32` length-prefixed UTF-8 strings, `u32` count-prefixed sequences,
// one-byte presence flags for options, and one-byte tags for enums in
// declaration order. Decoding borrows the payload slice and allocates
// only the output strings — no intermediate representation.

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_opt_str(out: &mut Vec<u8>, s: &Option<String>) {
    match s {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
    }
}

fn put_seq<T>(out: &mut Vec<u8>, items: &[T], mut f: impl FnMut(&mut Vec<u8>, &T)) {
    put_u32(out, items.len() as u32);
    for item in items {
        f(out, item);
    }
}

/// A decode cursor over a borrowed payload. Errors are plain strings;
/// the frame scanner wraps them into [`RepoError::CorruptFrame`] with
/// the segment and offset attached.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Cur<'a> {
        Cur { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err(format!(
                "payload truncated: need {n} bytes at {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|e| format!("invalid UTF-8 in string field: {e}"))
    }

    fn opt_str(&mut self) -> Result<Option<String>, String> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.str()?)),
            t => Err(format!("invalid option tag {t}")),
        }
    }

    fn seq<T>(
        &mut self,
        mut f: impl FnMut(&mut Cur<'a>) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let n = self.u32()? as usize;
        // A corrupt count could claim billions of items; items are at
        // least one byte each, so bound by the bytes actually present.
        if n > self.buf.len() - self.pos {
            return Err(format!("sequence count {n} exceeds remaining payload"));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }

    fn done(self) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after event payload",
                self.buf.len() - self.pos
            ))
        }
    }
}

fn put_principal(out: &mut Vec<u8>, p: &crate::principal::Principal) {
    put_str(out, &p.name);
    put_opt_str(out, &p.affiliation);
    out.push(role_tag(p.role));
}

fn role_tag(r: crate::principal::Role) -> u8 {
    use crate::principal::Role::*;
    match r {
        Member => 0,
        Reviewer => 1,
        Curator => 2,
    }
}

fn role_of(tag: u8) -> Result<crate::principal::Role, String> {
    use crate::principal::Role::*;
    Ok(match tag {
        0 => Member,
        1 => Reviewer,
        2 => Curator,
        t => return Err(format!("invalid role tag {t}")),
    })
}

fn get_principal(c: &mut Cur<'_>) -> Result<crate::principal::Principal, String> {
    Ok(crate::principal::Principal {
        name: c.str()?,
        affiliation: c.opt_str()?,
        role: role_of(c.u8()?)?,
    })
}

fn put_comment(out: &mut Vec<u8>, c: &Comment) {
    put_str(out, &c.author);
    put_str(out, &c.date);
    put_str(out, &c.text);
}

fn get_comment(c: &mut Cur<'_>) -> Result<Comment, String> {
    Ok(Comment {
        author: c.str()?,
        date: c.str()?,
        text: c.str()?,
    })
}

fn example_type_tag(t: ExampleType) -> u8 {
    match t {
        ExampleType::Precise => 0,
        ExampleType::Industrial => 1,
        ExampleType::Sketch => 2,
        ExampleType::Benchmark => 3,
    }
}

fn example_type_of(tag: u8) -> Result<ExampleType, String> {
    Ok(match tag {
        0 => ExampleType::Precise,
        1 => ExampleType::Industrial,
        2 => ExampleType::Sketch,
        3 => ExampleType::Benchmark,
        t => return Err(format!("invalid example-type tag {t}")),
    })
}

fn property_tag(p: Property) -> u8 {
    match p {
        Property::Correct => 0,
        Property::Hippocratic => 1,
        Property::Undoable => 2,
        Property::HistoryIgnorant => 3,
        Property::SimplyMatching => 4,
        Property::Bijective => 5,
        Property::NonDestructive => 6,
    }
}

fn property_of(tag: u8) -> Result<Property, String> {
    Ok(match tag {
        0 => Property::Correct,
        1 => Property::Hippocratic,
        2 => Property::Undoable,
        3 => Property::HistoryIgnorant,
        4 => Property::SimplyMatching,
        5 => Property::Bijective,
        6 => Property::NonDestructive,
        t => return Err(format!("invalid property tag {t}")),
    })
}

fn artefact_kind_tag(k: &ArtefactKind) -> u8 {
    match k {
        ArtefactKind::Code => 0,
        ArtefactKind::Diagram => 1,
        ArtefactKind::SampleData => 2,
        ArtefactKind::ProofScript => 3,
        ArtefactKind::VmImage => 4,
        ArtefactKind::Other => 5,
    }
}

fn artefact_kind_of(tag: u8) -> Result<ArtefactKind, String> {
    Ok(match tag {
        0 => ArtefactKind::Code,
        1 => ArtefactKind::Diagram,
        2 => ArtefactKind::SampleData,
        3 => ArtefactKind::ProofScript,
        4 => ArtefactKind::VmImage,
        5 => ArtefactKind::Other,
        t => return Err(format!("invalid artefact-kind tag {t}")),
    })
}

fn put_entry(out: &mut Vec<u8>, e: &ExampleEntry) {
    put_str(out, &e.title);
    put_u32(out, e.version.major);
    put_u32(out, e.version.minor);
    put_seq(out, &e.types, |o, t| o.push(example_type_tag(*t)));
    put_str(out, &e.overview);
    put_str(out, &e.models);
    put_str(out, &e.consistency);
    put_str(out, &e.restoration.forward);
    put_str(out, &e.restoration.backward);
    put_seq(out, &e.properties, |o, c| {
        o.push(property_tag(c.property));
        o.push(match c.polarity {
            Polarity::Holds => 0,
            Polarity::Fails => 1,
        });
    });
    put_seq(out, &e.variants, |o, v| {
        put_str(o, &v.name);
        put_str(o, &v.description);
    });
    put_str(out, &e.discussion);
    put_seq(out, &e.references, |o, r| {
        put_str(o, &r.citation);
        put_opt_str(o, &r.doi);
    });
    put_seq(out, &e.authors, |o, a| put_str(o, a));
    put_seq(out, &e.reviewers, |o, r| put_str(o, r));
    put_seq(out, &e.comments, put_comment);
    put_seq(out, &e.artefacts, |o, a| {
        put_str(o, &a.name);
        o.push(artefact_kind_tag(&a.kind));
        put_str(o, &a.location);
    });
}

fn get_entry(c: &mut Cur<'_>) -> Result<ExampleEntry, String> {
    Ok(ExampleEntry {
        title: c.str()?,
        version: Version {
            major: c.u32()?,
            minor: c.u32()?,
        },
        types: c.seq(|c| example_type_of(c.u8()?))?,
        overview: c.str()?,
        models: c.str()?,
        consistency: c.str()?,
        restoration: RestorationSpec {
            forward: c.str()?,
            backward: c.str()?,
        },
        properties: c.seq(|c| {
            Ok(Claim {
                property: property_of(c.u8()?)?,
                polarity: match c.u8()? {
                    0 => Polarity::Holds,
                    1 => Polarity::Fails,
                    t => return Err(format!("invalid polarity tag {t}")),
                },
            })
        })?,
        variants: c.seq(|c| {
            Ok(VariantPoint {
                name: c.str()?,
                description: c.str()?,
            })
        })?,
        discussion: c.str()?,
        references: c.seq(|c| {
            Ok(Reference {
                citation: c.str()?,
                doi: c.opt_str()?,
            })
        })?,
        authors: c.seq(|c| c.str())?,
        reviewers: c.seq(|c| c.str())?,
        comments: c.seq(get_comment)?,
        artefacts: c.seq(|c| {
            Ok(Artefact {
                name: c.str()?,
                kind: artefact_kind_of(c.u8()?)?,
                location: c.str()?,
            })
        })?,
    })
}

fn put_entry_delta(out: &mut Vec<u8>, d: &crate::event::EntryDelta) {
    put_str(out, &d.id.0);
    put_entry(out, &d.entry);
}

fn get_entry_delta(c: &mut Cur<'_>) -> Result<crate::event::EntryDelta, String> {
    Ok(crate::event::EntryDelta {
        id: crate::repo::EntryId(c.str()?),
        entry: get_entry(c)?,
    })
}

/// Serialise one event into the payload form the frame CRC covers.
pub fn encode_event(event: &RepoEvent, out: &mut Vec<u8>) {
    use crate::event::*;
    match event {
        RepoEvent::Founded(x) => {
            out.push(0);
            put_str(out, &x.name);
            put_seq(out, &x.curators, put_principal);
        }
        RepoEvent::Registered(x) => {
            out.push(1);
            put_principal(out, &x.principal);
        }
        RepoEvent::RoleGranted(x) => {
            out.push(2);
            put_str(out, &x.account);
            out.push(role_tag(x.role));
        }
        RepoEvent::Contributed(d) => {
            out.push(3);
            put_entry_delta(out, d);
        }
        RepoEvent::Revised(d) => {
            out.push(4);
            put_entry_delta(out, d);
        }
        RepoEvent::Approved(d) => {
            out.push(5);
            put_entry_delta(out, d);
        }
        RepoEvent::Commented(x) => {
            out.push(6);
            put_str(out, &x.id.0);
            put_comment(out, &x.comment);
        }
        RepoEvent::ReviewRequested(r) => {
            out.push(7);
            put_str(out, &r.id.0);
        }
        RepoEvent::ChangesRequested(r) => {
            out.push(8);
            put_str(out, &r.id.0);
        }
    }
}

/// Decode one event payload (the exact slice the CRC covered).
pub fn decode_event(payload: &[u8]) -> Result<RepoEvent, String> {
    use crate::event::*;
    let mut c = Cur::new(payload);
    let event = match c.u8()? {
        0 => RepoEvent::Founded(Founded {
            name: c.str()?,
            curators: c.seq(get_principal)?,
        }),
        1 => RepoEvent::Registered(Registered {
            principal: get_principal(&mut c)?,
        }),
        2 => RepoEvent::RoleGranted(RoleGranted {
            account: c.str()?,
            role: role_of(c.u8()?)?,
        }),
        3 => RepoEvent::Contributed(get_entry_delta(&mut c)?),
        4 => RepoEvent::Revised(get_entry_delta(&mut c)?),
        5 => RepoEvent::Approved(get_entry_delta(&mut c)?),
        6 => RepoEvent::Commented(Commented {
            id: crate::repo::EntryId(c.str()?),
            comment: get_comment(&mut c)?,
        }),
        7 => RepoEvent::ReviewRequested(EntryRef {
            id: crate::repo::EntryId(c.str()?),
        }),
        8 => RepoEvent::ChangesRequested(EntryRef {
            id: crate::repo::EntryId(c.str()?),
        }),
        t => return Err(format!("invalid event tag {t}")),
    };
    c.done()?;
    Ok(event)
}

/// Append one framed event (header + payload) to `out`.
pub fn encode_frame(event: &RepoEvent, out: &mut Vec<u8>) {
    let header_at = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER]);
    encode_event(event, out);
    let payload = &out[header_at + FRAME_HEADER..];
    let len = payload.len() as u32;
    let crc = crc32(payload);
    out[header_at..header_at + 4].copy_from_slice(&len.to_le_bytes());
    out[header_at + 4..header_at + 8].copy_from_slice(&(len ^ LEN_MASK).to_le_bytes());
    out[header_at + 8..header_at + 12].copy_from_slice(&crc.to_le_bytes());
}

/// What the scanner found at one position in a segment buffer.
// The event variant dwarfs the others, but this enum lives only as a
// hot-path return value — boxing every decoded event to shrink it would
// add an allocation per replayed frame for nothing.
#[allow(clippy::large_enum_variant)]
enum FrameScan {
    /// Clean end of buffer: the position sits exactly on a frame boundary.
    End,
    /// A complete, checksum-clean frame; `usize` is the next position.
    Frame(RepoEvent, usize),
    /// Fewer bytes remain than one whole frame promises — a torn tail if
    /// this is the end of the *last* segment, corruption otherwise.
    Torn,
    /// An integrity check failed: header mask, payload CRC, or decode.
    Corrupt(String),
}

fn scan_frame(buf: &[u8], pos: usize) -> FrameScan {
    let remaining = buf.len() - pos;
    if remaining == 0 {
        return FrameScan::End;
    }
    if remaining < FRAME_HEADER {
        return FrameScan::Torn;
    }
    let word = |at: usize| u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]]);
    let len = word(pos);
    let check = word(pos + 4);
    // Verify the header before trusting `len` for anything — a flipped
    // length byte must read as corruption, not as a huge torn tail.
    if check != len ^ LEN_MASK {
        return FrameScan::Corrupt(format!(
            "frame header check mismatch (len={len:#010x}, check={check:#010x})"
        ));
    }
    let len = len as usize;
    if remaining < FRAME_HEADER + len {
        return FrameScan::Torn;
    }
    let stored_crc = word(pos + 8);
    let payload = &buf[pos + FRAME_HEADER..pos + FRAME_HEADER + len];
    let actual_crc = crc32(payload);
    if actual_crc != stored_crc {
        return FrameScan::Corrupt(format!(
            "payload CRC mismatch (stored {stored_crc:#010x}, computed {actual_crc:#010x})"
        ));
    }
    match decode_event(payload) {
        Ok(event) => FrameScan::Frame(event, pos + FRAME_HEADER + len),
        Err(e) => FrameScan::Corrupt(format!("payload decode failed: {e}")),
    }
}

/// Decode the frames of one segment buffer from `start`. Returns the
/// events plus the byte position consumed. A torn tail is tolerated only
/// when `last_segment` (sealed segments hold whole frames by
/// construction); anything else integrity-fails as
/// [`RepoError::CorruptFrame`].
fn read_segment(
    buf: &[u8],
    segment: &str,
    last_segment: bool,
    start: usize,
) -> Result<(Vec<RepoEvent>, usize), RepoError> {
    // Guess one event per 96 bytes (small comment frames) so a replay
    // of a full segment does not regrow the vector a dozen times; a
    // short guess merely falls back to normal amortised growth.
    let mut events = Vec::with_capacity(buf.len().saturating_sub(start) / 96);
    let mut pos = start;
    loop {
        match scan_frame(buf, pos) {
            FrameScan::End => return Ok((events, pos)),
            FrameScan::Frame(event, next) => {
                events.push(event);
                pos = next;
            }
            FrameScan::Torn if last_segment => return Ok((events, pos)),
            FrameScan::Torn => {
                return Err(RepoError::CorruptFrame {
                    segment: segment.to_string(),
                    offset: pos as u64,
                    reason: "incomplete frame inside a sealed segment".to_string(),
                })
            }
            FrameScan::Corrupt(reason) => {
                return Err(RepoError::CorruptFrame {
                    segment: segment.to_string(),
                    offset: pos as u64,
                    reason,
                })
            }
        }
    }
}

fn io_err(e: std::io::Error) -> RepoError {
    RepoError::Persist(e.to_string())
}

/// The segment files of one generation, sorted (zero-padded indices make
/// lexical order numeric order). Empty when the generation has never
/// been written — or the directory does not exist.
pub fn segment_files(dir: &Path, generation: &str) -> Result<Vec<String>, RepoError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_err(e)),
    };
    let prefix = format!("{generation}.");
    let mut out = Vec::new();
    for entry in entries {
        let entry = entry.map_err(io_err)?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(rest) = name.strip_prefix(&prefix) {
            if rest.len() == 6 && rest.bytes().all(|b| b.is_ascii_digit()) {
                out.push(name);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Total on-disk length of a generation — the sum of its segment sizes.
/// This is the "end offset" a fully caught-up tail sits at, so an
/// unchanged log is detected by metadata alone.
pub(crate) fn generation_len(dir: &Path, generation: &str) -> Result<u64, RepoError> {
    let mut total = 0;
    for name in segment_files(dir, generation)? {
        total += std::fs::metadata(dir.join(&name)).map_err(io_err)?.len();
    }
    Ok(total)
}

/// Read a generation's events from a *global* byte offset (a frame
/// boundary from a previous read). Returns `Ok(None)` when the log is
/// shorter than `offset` — it was checkpoint-rolled or foreign-truncated
/// and the caller must re-base — and `Ok(Some((events, end)))` otherwise,
/// where `end` is the offset consumed (torn tail bytes excluded). The
/// unchanged case (`end == offset`, no events) costs one directory scan
/// and per-segment stats, no reads.
pub(crate) fn read_tail(
    dir: &Path,
    generation: &str,
    offset: u64,
) -> Result<Option<(Vec<RepoEvent>, u64)>, RepoError> {
    let segments = segment_files(dir, generation)?;
    let mut sizes = Vec::with_capacity(segments.len());
    for name in &segments {
        sizes.push(std::fs::metadata(dir.join(name)).map_err(io_err)?.len());
    }
    let total: u64 = sizes.iter().sum();
    if total < offset {
        return Ok(None);
    }
    if total == offset {
        return Ok(Some((Vec::new(), offset)));
    }
    let last = segments.len().saturating_sub(1);
    let mut events = Vec::new();
    let mut consumed = offset;
    let mut base = 0u64;
    for (i, (name, &size)) in segments.iter().zip(&sizes).enumerate() {
        if base + size <= offset {
            // Entirely before the tail: sealed segments never change, so
            // the statted size is their final size.
            base += size;
            continue;
        }
        let local_start = offset.saturating_sub(base) as usize;
        // One buffered read of the whole segment; frames decode in place.
        let buf = std::fs::read(dir.join(name)).map_err(io_err)?;
        if local_start > buf.len() {
            return Ok(None);
        }
        let (mut decoded, local_end) = read_segment(&buf, name, i == last, local_start)?;
        events.append(&mut decoded);
        consumed = base + local_end as u64;
        if local_end < buf.len() {
            // Torn tail: stop here; the bytes stay unconsumed for the
            // next poll (by then the writer may have completed the frame).
            break;
        }
        base += buf.len() as u64;
    }
    Ok(Some((events, consumed)))
}

/// All events of a generation (the cold-restore read path).
pub(crate) fn read_generation(dir: &Path, generation: &str) -> Result<Vec<RepoEvent>, RepoError> {
    Ok(read_tail(dir, generation, 0)?
        .map(|(events, _)| events)
        .unwrap_or_default())
}

/// [`read_generation`] fanned out across a worker pool: one job per
/// segment file (sealed segments are immutable and CRC-framed, so they
/// decode independently; only the last segment may carry a torn tail).
/// Results are spliced back in segment order, and an error surfaces as
/// the first offending `(segment, offset)` **in log order** regardless of
/// which worker finished first — bit-identical to the sequential read on
/// every input, corrupt or clean. Returns the events plus the global byte
/// offset consumed (torn tail excluded), the same contract as
/// `read_tail(dir, generation, 0)`.
pub(crate) fn read_generation_parallel(
    dir: &Path,
    generation: &str,
    pool: &crate::runtime::WorkerPool,
) -> Result<(Vec<RepoEvent>, u64), RepoError> {
    let segments = segment_files(dir, generation)?;
    if segments.is_empty() {
        return Ok((Vec::new(), 0));
    }
    let last = segments.len() - 1;
    type SegmentRead = Result<(Vec<RepoEvent>, usize), RepoError>;
    let jobs: Vec<Box<dyn FnOnce() -> SegmentRead + Send>> = segments
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let path = dir.join(name);
            let name = name.clone();
            let last_segment = i == last;
            Box::new(move || -> SegmentRead {
                let buf = std::fs::read(&path).map_err(io_err)?;
                read_segment(&buf, &name, last_segment, 0)
            }) as Box<dyn FnOnce() -> SegmentRead + Send>
        })
        .collect();
    let mut events = Vec::new();
    let mut consumed = 0u64;
    for result in pool.scatter(jobs) {
        // Ordered gather: the first failing segment in log order wins.
        // A sealed segment either decodes fully or errors, so summing
        // per-segment consumption equals the sequential global offset.
        let (mut decoded, local_end) = result?;
        events.append(&mut decoded);
        consumed += local_end as u64;
    }
    Ok((events, consumed))
}

/// The generation name to assume for a directory with no checkpoint
/// manifest: binary if generation-0 binary segments exist, else the
/// JSONL default (which also covers a completely fresh directory).
pub(crate) fn unmanifested_generation(dir: &Path) -> String {
    match segment_files(dir, "events-0.bin") {
        Ok(segments) if !segments.is_empty() => "events-0.bin".to_string(),
        _ => "events-0.jsonl".to_string(),
    }
}

/// A strict prefix of a valid frame — the bytes a crash mid-`write(2)`
/// leaves behind. Appending this to a binary log's last segment
/// simulates a torn tail that readers must drop and the writer must
/// truncate at open (test/fault-injection support; the JSONL analogue is
/// `bx_testkit`'s `torn_append`).
pub fn torn_frame_bytes() -> Vec<u8> {
    let len: u32 = 64;
    let mut out = Vec::with_capacity(FRAME_HEADER + 5);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&(len ^ LEN_MASK).to_le_bytes());
    out.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
    out.extend_from_slice(b"torn!");
    out
}

/// A *complete* frame whose payload CRC is wrong — real corruption, not
/// a torn tail: the header is self-consistent and the payload is all
/// present, so readers raise [`RepoError::CorruptFrame`] at its offset
/// instead of dropping it (test/fault-injection support; the salvage
/// path truncates exactly here).
pub fn corrupt_frame_bytes() -> Vec<u8> {
    let payload = b"rotted!";
    let len = payload.len() as u32;
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&(len ^ LEN_MASK).to_le_bytes());
    // Deliberately not crc32(payload).
    out.extend_from_slice(&(!crc32(payload)).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Convert an event-log directory between the two on-disk formats.
///
/// Reads the durable contents of `src` — checkpoint base plus the intact
/// events of the generation the manifest names, in whichever format that
/// generation is — and writes an equivalent directory at `dst` in the
/// format `to_binary` selects. The converted directory mirrors the
/// source's shape: a source with a checkpoint manifest yields a
/// checkpointed destination (base state first, pending events recorded
/// after); a bare unmanifested log stays bare. Returns the number of
/// pending events carried across.
///
/// A torn tail in `src` is dropped (it was never durable); real
/// corruption aborts the conversion with the source format's error
/// ([`RepoError::CorruptFrame`] for binary, `Persist` for JSONL).
/// `dst` must be empty or absent — an existing log is refused, never
/// merged into. This is the engine behind the `bx_logconv` CLI; the
/// round-trip property (JSONL → binary → JSONL restores identically)
/// is tested over generated op scripts in `tests/logconv_roundtrip.rs`.
pub fn convert_log_dir(src: &Path, dst: &Path, to_binary: bool) -> Result<usize, RepoError> {
    convert_log_dir_pooled(src, dst, to_binary, None)
}

/// [`convert_log_dir`] with the source decode fanned out over a
/// [`Runtime`](crate::runtime::Runtime)'s workers — what the `bx_logconv`
/// CLI uses, so a whole federation's source set converts on all cores.
/// Decode order, the converted bytes and which error a corrupt source
/// surfaces are identical to the sequential conversion.
pub fn convert_log_dir_on(
    src: &Path,
    dst: &Path,
    to_binary: bool,
    runtime: &std::sync::Arc<crate::runtime::Runtime>,
) -> Result<usize, RepoError> {
    convert_log_dir_pooled(src, dst, to_binary, Some(runtime.pool()))
}

fn convert_log_dir_pooled(
    src: &Path,
    dst: &Path,
    to_binary: bool,
    pool: Option<&crate::runtime::WorkerPool>,
) -> Result<usize, RepoError> {
    if dst.exists() {
        let occupied = std::fs::read_dir(dst)
            .map_err(|e| RepoError::Persist(e.to_string()))?
            .next()
            .is_some();
        if occupied {
            return Err(RepoError::Persist(format!(
                "destination `{}` already has contents; refusing to merge a conversion into it",
                dst.display()
            )));
        }
    }
    let (base, generation) = EventLogBackend::read_state_in(src)?;
    let events = match pool {
        Some(pool) => EventLogBackend::read_generation_events_pooled(src, &generation, pool)?,
        None => EventLogBackend::read_generation_events(src, &generation)?,
    };
    let mut target: Box<dyn StorageBackend> = if to_binary {
        Box::new(BinaryLogBackend::open(dst)?)
    } else {
        Box::new(EventLogBackend::open(dst)?)
    };
    if src.join("checkpoint.json").exists() {
        target.checkpoint(&base)?;
    }
    if !events.is_empty() {
        target.record(&events)?;
    }
    Ok(events.len())
}

/// Append-only binary segmented log backend. See the module docs for the
/// format; the operational contract (persistent appender, two-phase
/// durability, manifest-rename checkpoints, single writer per directory,
/// clones are fresh writers owing no fsync) mirrors
/// [`crate::storage::EventLogBackend`] exactly — the two are drop-in
/// interchangeable behind [`StorageBackend`].
#[derive(Debug)]
pub struct BinaryLogBackend {
    dir: PathBuf,
    /// Current generation's logical name (`events-<n>.bin`), relative to
    /// `dir`. Segment files append a `.NNNNNN` index to it.
    generation: String,
    /// Index of the segment currently being appended to.
    segment_index: u32,
    /// Byte length of the current segment (tracked to decide rolls
    /// without a stat per batch; re-derived whenever the appender opens).
    segment_len: u64,
    /// Roll to a new segment once the current one would exceed this.
    segment_bytes: u64,
    durability: DurabilityMode,
    appender: Option<File>,
    /// Bytes staged but not fsynced — only in [`DurabilityMode::GroupCommit`].
    dirty: bool,
    /// Fsyncs this instance has issued.
    fsyncs: u64,
    /// The torn-tail truncation `open` performed, if any.
    tail_repaired: Option<TailRepaired>,
}

/// A clone is a fresh writer over the same directory and generation — it
/// opens its own appender on first use and owes no fsync for bytes the
/// original staged.
impl Clone for BinaryLogBackend {
    fn clone(&self) -> BinaryLogBackend {
        BinaryLogBackend {
            dir: self.dir.clone(),
            generation: self.generation.clone(),
            segment_index: self.segment_index,
            segment_len: self.segment_len,
            segment_bytes: self.segment_bytes,
            durability: self.durability,
            appender: None,
            dirty: false,
            fsyncs: 0,
            tail_repaired: None,
        }
    }
}

impl BinaryLogBackend {
    /// Default segment size cap. Small enough that tailing re-reads at
    /// most this much on a partially-consumed segment, large enough that
    /// a million-event log stays in the tens of segments.
    pub const DEFAULT_SEGMENT_BYTES: u64 = 8 * 1024 * 1024;

    /// Open (creating the directory if needed) a binary log under `dir`
    /// with the default segment size.
    pub fn open(dir: impl Into<PathBuf>) -> Result<BinaryLogBackend, RepoError> {
        Self::open_with_segment_bytes(dir, Self::DEFAULT_SEGMENT_BYTES)
    }

    /// Open with an explicit segment size cap (frames never span
    /// segments, so a frame larger than the cap gets a segment to
    /// itself). Opening repairs a torn final frame in the last segment —
    /// the fragment was never readable, so truncating it loses nothing —
    /// but leaves *corrupt* frames untouched for `restore` to report.
    pub fn open_with_segment_bytes(
        dir: impl Into<PathBuf>,
        segment_bytes: u64,
    ) -> Result<BinaryLogBackend, RepoError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(io_err)?;
        let generation = match EventLogBackend::read_manifest_in(&dir)? {
            Some(manifest) => manifest.log,
            None => "events-0.bin".to_string(),
        };
        if !is_binary_generation(&generation) {
            return Err(RepoError::Persist(format!(
                "directory holds a JSONL event log (generation `{generation}`); \
                 open it with EventLogBackend or convert it with bx_logconv"
            )));
        }
        let segment_index = segment_files(&dir, &generation)?
            .last()
            .and_then(|name| name.rsplit('.').next())
            .and_then(|idx| idx.parse().ok())
            .unwrap_or(0);
        let mut backend = BinaryLogBackend {
            dir,
            generation,
            segment_index,
            segment_len: 0,
            segment_bytes: segment_bytes.max(1),
            durability: DurabilityMode::default(),
            appender: None,
            dirty: false,
            fsyncs: 0,
            tail_repaired: None,
        };
        backend.tail_repaired = backend.repair_torn_tail()?;
        Ok(backend)
    }

    /// The active [`DurabilityMode`].
    pub fn durability(&self) -> DurabilityMode {
        self.durability
    }

    /// Fsyncs this instance has issued, sealed-segment syncs included.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// The current generation's logical name (what the manifest records).
    pub fn current_generation(&self) -> &str {
        &self.generation
    }

    /// The configured segment size cap.
    pub fn segment_bytes(&self) -> u64 {
        self.segment_bytes
    }

    /// Every segment file of the current generation, sorted.
    pub fn generation_files(&self) -> Result<Vec<String>, RepoError> {
        segment_files(&self.dir, &self.generation)
    }

    fn segment_name(&self) -> String {
        format!("{}.{:06}", self.generation, self.segment_index)
    }

    /// Truncate a torn final frame off the last segment, if any,
    /// returning a note of what was dropped. Walks headers only (mask +
    /// bounds): a CRC or decode failure is real corruption and is
    /// deliberately left in place to surface at `restore`, not silently
    /// amputated here.
    fn repair_torn_tail(&self) -> Result<Option<TailRepaired>, RepoError> {
        let Some(last) = self.generation_files()?.into_iter().next_back() else {
            return Ok(None);
        };
        let path = self.dir.join(&last);
        let buf = std::fs::read(&path).map_err(io_err)?;
        let mut pos = 0usize;
        loop {
            let remaining = buf.len() - pos;
            if remaining == 0 {
                return Ok(None);
            }
            if remaining >= FRAME_HEADER {
                let word = |at: usize| {
                    u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]])
                };
                let len = word(pos);
                if word(pos + 4) != len ^ LEN_MASK {
                    // Corrupt header: not a torn tail; leave for restore.
                    return Ok(None);
                }
                if remaining >= FRAME_HEADER + len as usize {
                    pos += FRAME_HEADER + len as usize;
                    continue;
                }
            }
            // Fewer bytes than the frame promises: torn — truncate.
            let file = OpenOptions::new().write(true).open(&path).map_err(io_err)?;
            file.set_len(pos as u64).map_err(io_err)?;
            file.sync_all().map_err(io_err)?;
            return Ok(Some(TailRepaired {
                file: last,
                bytes_dropped: (buf.len() - pos) as u64,
            }));
        }
    }

    /// Remove segments of superseded generations (strays from crashes in
    /// the checkpoint window). Returns how many files were removed.
    pub fn prune_stale_generations(&self) -> Result<usize, RepoError> {
        let mut removed = 0;
        for entry in std::fs::read_dir(&self.dir).map_err(io_err)? {
            let entry = entry.map_err(io_err)?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let stale_binary = name.starts_with("events-")
                && name.contains(".bin.")
                && !name.starts_with(&format!("{}.", self.generation));
            // A converted directory may also hold a superseded JSONL log.
            let stale_jsonl = name.starts_with("events-") && name.ends_with(".jsonl");
            if stale_binary || stale_jsonl {
                std::fs::remove_file(entry.path()).map_err(io_err)?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// How many events sit in the log beyond the last checkpoint, by a
    /// headers-only walk (no payload decode — the count is wanted on
    /// open/monitoring paths). A torn final frame is not counted; a
    /// corrupt frame stops the walk and surfaces at `restore` instead.
    pub fn pending_events(&self) -> Result<usize, RepoError> {
        let mut count = 0usize;
        for name in self.generation_files()? {
            let buf = std::fs::read(self.dir.join(&name)).map_err(io_err)?;
            let mut pos = 0usize;
            while buf.len() - pos >= FRAME_HEADER {
                let word = |at: usize| {
                    u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]])
                };
                let len = word(pos);
                if word(pos + 4) != len ^ LEN_MASK || buf.len() - pos < FRAME_HEADER + len as usize
                {
                    break;
                }
                count += 1;
                pos += FRAME_HEADER + len as usize;
            }
        }
        Ok(count)
    }

    fn appender(&mut self) -> Result<&mut File, RepoError> {
        if self.appender.is_none() {
            let path = self.dir.join(self.segment_name());
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .map_err(|e| RepoError::persist_io("open binary log appender", e))?;
            self.segment_len = file
                .metadata()
                .map_err(|e| RepoError::persist_io("stat binary log segment", e))?
                .len();
            self.appender = Some(file);
        }
        Ok(self.appender.as_mut().expect("appender was just opened"))
    }

    fn write_chunk(&mut self, chunk: &[u8]) -> Result<(), RepoError> {
        let len = chunk.len() as u64;
        let file = self.appender()?;
        file.write_all(chunk)
            .map_err(|e| RepoError::persist_io("append binary log", e))?;
        self.segment_len += len;
        Ok(())
    }

    /// Seal the current segment (fsync so its full length is durable
    /// before anything lands in the next one) and open the successor.
    fn roll_segment(&mut self) -> Result<(), RepoError> {
        if let Some(file) = self.appender.take() {
            file.sync_all()
                .map_err(|e| RepoError::persist_io("fsync sealed binary segment", e))?;
            self.fsyncs += 1;
        }
        self.segment_index += 1;
        self.segment_len = 0;
        Ok(())
    }

    /// `restore()` plus the replayed event count off a single pass (the
    /// compacting wrapper's open path needs both).
    pub(crate) fn restore_with_pending(&self) -> Result<(RepositorySnapshot, usize), RepoError> {
        let (base, generation) = match EventLogBackend::read_manifest_in(&self.dir)? {
            Some(manifest) => (manifest.state, manifest.log),
            None => (RepositorySnapshot::empty(""), self.generation.clone()),
        };
        let events = if is_binary_generation(&generation) {
            read_generation(&self.dir, &generation)?
        } else {
            // A foreign checkpoint switched the directory back to JSONL;
            // reads follow the manifest, as the JSONL backend's do.
            EventLogBackend::read_log_file(&self.dir.join(&generation))?
        };
        Ok((replay(base, &events), events.len()))
    }
}

impl StorageBackend for BinaryLogBackend {
    fn kind(&self) -> &'static str {
        "binary-log"
    }

    fn record(&mut self, events: &[RepoEvent]) -> Result<(), RepoError> {
        if events.is_empty() {
            return Ok(());
        }
        // Make sure segment_len is real before sizing against the cap.
        self.appender()?;
        // Pack frames greedily: everything destined for the current
        // segment accumulates in one chunk (one write_all), rolling to a
        // fresh segment whenever the next frame would overflow the cap.
        // A frame larger than the cap still gets a (solo) segment — the
        // cap bounds segment size, it does not limit event size.
        let mut pending: Vec<u8> = Vec::new();
        for event in events {
            let before = pending.len();
            encode_frame(event, &mut pending);
            let frame_len = (pending.len() - before) as u64;
            let base = self.segment_len + before as u64;
            if base > 0 && base + frame_len > self.segment_bytes {
                let frame = pending.split_off(before);
                if !pending.is_empty() {
                    self.write_chunk(&std::mem::take(&mut pending))?;
                }
                self.roll_segment()?;
                pending = frame;
            }
        }
        if !pending.is_empty() {
            self.write_chunk(&pending)?;
        }
        match self.durability {
            DurabilityMode::PerBatch => {
                let file = self.appender()?;
                file.sync_all()
                    .map_err(|e| RepoError::persist_io("fsync binary log", e))?;
                self.fsyncs += 1;
            }
            DurabilityMode::GroupCommit => self.dirty = true,
        }
        Ok(())
    }

    /// Crash-safe compaction, same commit protocol as the JSONL backend:
    /// the new manifest names a fresh (empty) generation, its atomic
    /// rename is the single commit point, and the superseded generation's
    /// segments are removed opportunistically afterwards.
    fn checkpoint(&mut self, snapshot: &RepositorySnapshot) -> Result<(), RepoError> {
        let old_generation = self.generation.clone();
        let n: u64 = old_generation
            .strip_prefix("events-")
            .and_then(|s| s.strip_suffix(BIN_SUFFIX))
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let new_generation = format!("events-{}{}", n + 1, BIN_SUFFIX);
        let manifest = Manifest {
            log: new_generation.clone(),
            state: snapshot.clone(),
        };
        crate::storage::write_manifest_in(&self.dir, &manifest)?;
        // Past the commit point: reset the writer onto the fresh
        // generation and sweep the superseded segments.
        self.generation = new_generation;
        self.segment_index = 0;
        self.segment_len = 0;
        self.appender = None;
        self.dirty = false;
        for name in segment_files(&self.dir, &old_generation).unwrap_or_default() {
            std::fs::remove_file(self.dir.join(name)).ok();
        }
        Ok(())
    }

    fn restore(&self) -> Result<RepositorySnapshot, RepoError> {
        self.restore_with_pending().map(|(state, _)| state)
    }

    /// One fsync covering every batch staged since the last call.
    /// Mid-window segment rolls already fsynced the sealed segments (see
    /// [`Self::roll_segment`]), so only the live segment needs syncing,
    /// with the full `sync_all` the JSONL backend uses too.
    fn flush_durable(&mut self) -> Result<(), RepoError> {
        if !self.dirty {
            return Ok(());
        }
        self.appender()?
            .sync_all()
            .map_err(|e| RepoError::persist_io("fsync binary log", e))?;
        self.fsyncs += 1;
        self.dirty = false;
        Ok(())
    }

    fn set_durability(&mut self, mode: DurabilityMode) {
        self.durability = mode;
    }

    fn tail_repaired(&self) -> Option<TailRepaired> {
        self.tail_repaired.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::principal::Principal;
    use crate::repo::Repository;
    use crate::template::ExampleType;
    use crate::test_support::unique_dir;

    fn entry(title: &str) -> ExampleEntry {
        ExampleEntry::builder(title)
            .of_type(ExampleType::Precise)
            .overview("O.")
            .models("M.")
            .consistency("C.")
            .restoration("F.", "B.")
            .discussion("D.")
            .author("alice")
            .reference("Cheney et al. 2014", Some("10.0/bx"))
            .variant("unkeyed", "drop the keys")
            .artefact("demo", ArtefactKind::Code, "examples/demo.rs")
            .build()
            .unwrap()
    }

    fn busy_repository() -> Repository {
        let r = Repository::found("bx", vec![Principal::curator("c")]);
        r.register(Principal::member("alice")).unwrap();
        r.register(Principal::member("bob")).unwrap();
        r.grant_role("c", "bob", crate::principal::Role::Reviewer)
            .unwrap();
        let id = r.contribute("alice", entry("COMPOSERS")).unwrap();
        r.comment("bob", &id, "2014-03-28", "Nice.").unwrap();
        r.request_review("alice", &id).unwrap();
        r.approve("bob", &id).unwrap();
        r.contribute("alice", entry("DATES")).unwrap();
        r
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn event_codec_roundtrips_every_variant() {
        let r = busy_repository();
        let events = r.drain_events();
        // The script above produces most variants; add the rest by hand.
        let id = crate::repo::EntryId::from_title("COMPOSERS");
        let mut all = events;
        all.push(RepoEvent::ChangesRequested(crate::event::EntryRef {
            id: id.clone(),
        }));
        all.push(RepoEvent::RoleGranted(crate::event::RoleGranted {
            account: "alice".into(),
            role: crate::principal::Role::Curator,
        }));
        for event in &all {
            let mut payload = Vec::new();
            encode_event(event, &mut payload);
            let back = decode_event(&payload).expect("decodes");
            assert_eq!(&back, event);
        }
    }

    #[test]
    fn codec_rejects_truncated_and_trailing_payloads() {
        let event = RepoEvent::ReviewRequested(crate::event::EntryRef {
            id: crate::repo::EntryId("x".into()),
        });
        let mut payload = Vec::new();
        encode_event(&event, &mut payload);
        assert!(decode_event(&payload[..payload.len() - 1]).is_err());
        let mut padded = payload.clone();
        padded.push(0);
        assert!(decode_event(&padded).is_err());
        assert!(decode_event(&[]).is_err());
        assert!(decode_event(&[99]).is_err());
    }

    #[test]
    fn binary_backend_appends_and_recovers() {
        let dir = unique_dir("binlog");
        let r = busy_repository();
        let mut backend = BinaryLogBackend::open(&dir).unwrap();
        assert_eq!(backend.kind(), "binary-log");

        let events = r.drain_events();
        let (a, b) = events.split_at(events.len() / 2);
        backend.record(a).unwrap();
        backend.record(b).unwrap();
        assert_eq!(backend.pending_events().unwrap(), events.len());
        assert_eq!(backend.restore().unwrap(), r.snapshot());

        // A reopened backend (fresh process) sees the same state.
        let reopened = BinaryLogBackend::open(&dir).unwrap();
        assert_eq!(reopened.restore().unwrap(), r.snapshot());

        // Checkpoint compacts; recovery switches to snapshot + replay.
        backend.checkpoint(&r.snapshot()).unwrap();
        assert_eq!(backend.pending_events().unwrap(), 0);
        assert_eq!(backend.current_generation(), "events-1.bin");
        assert_eq!(backend.restore().unwrap(), r.snapshot());

        r.comment(
            "alice",
            &crate::repo::EntryId::from_title("DATES"),
            "2014-05-01",
            "post-checkpoint",
        )
        .unwrap();
        backend.record(&r.drain_events()).unwrap();
        assert_eq!(backend.pending_events().unwrap(), 1);
        assert_eq!(backend.restore().unwrap(), r.snapshot());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tiny_segments_roll_and_restore_across_files() {
        let dir = unique_dir("binlog-seg");
        let r = busy_repository();
        // A 200-byte cap forces nearly every frame into its own segment.
        let mut backend = BinaryLogBackend::open_with_segment_bytes(&dir, 200).unwrap();
        let events = r.drain_events();
        backend.record(&events).unwrap();
        let segments = backend.generation_files().unwrap();
        assert!(
            segments.len() > 1,
            "a 200-byte cap must produce multiple segments, got {segments:?}"
        );
        assert_eq!(backend.restore().unwrap(), r.snapshot());
        // Reopening (with any cap) continues appending at the last one.
        let mut reopened = BinaryLogBackend::open_with_segment_bytes(&dir, 200).unwrap();
        r.comment(
            "alice",
            &crate::repo::EntryId::from_title("DATES"),
            "2014-06-01",
            "after reopen",
        )
        .unwrap();
        reopened.record(&r.drain_events()).unwrap();
        assert_eq!(reopened.restore().unwrap(), r.snapshot());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_dropped_by_reads_and_truncated_at_open() {
        let dir = unique_dir("binlog-torn");
        let r = busy_repository();
        let mut backend = BinaryLogBackend::open(&dir).unwrap();
        backend.record(&r.drain_events()).unwrap();
        let expected = backend.restore().unwrap();

        let last = backend.generation_files().unwrap().pop().unwrap();
        let path = dir.join(&last);
        let clean_len = std::fs::metadata(&path).unwrap().len();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&torn_frame_bytes());
        std::fs::write(&path, &bytes).unwrap();

        // Reads drop the fragment without repair.
        assert_eq!(backend.restore().unwrap(), expected);

        // A fresh open truncates it so new appends don't concatenate.
        let mut reopened = BinaryLogBackend::open(&dir).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        r.comment(
            "alice",
            &crate::repo::EntryId::from_title("DATES"),
            "2014-07-01",
            "post-repair",
        )
        .unwrap();
        reopened.record(&r.drain_events()).unwrap();
        assert_eq!(reopened.restore().unwrap(), r.snapshot());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_mid_log_frame_is_a_typed_error() {
        let dir = unique_dir("binlog-corrupt");
        let r = busy_repository();
        let mut backend = BinaryLogBackend::open(&dir).unwrap();
        backend.record(&r.drain_events()).unwrap();
        let first = backend.generation_files().unwrap().remove(0);
        let path = dir.join(&first);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = backend.restore().unwrap_err();
        assert!(
            matches!(err, RepoError::CorruptFrame { ref segment, .. } if *segment == first),
            "expected CorruptFrame in {first}, got {err:?}"
        );
        // Opening does NOT repair corruption away (only torn tails).
        let reopened = BinaryLogBackend::open(&dir).unwrap();
        assert!(matches!(
            reopened.restore(),
            Err(RepoError::CorruptFrame { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_stages_until_flush() {
        let dir = unique_dir("binlog-gc");
        let r = busy_repository();
        let mut backend = BinaryLogBackend::open(&dir).unwrap();
        backend.set_durability(DurabilityMode::GroupCommit);
        let events = r.drain_events();
        let (a, b) = events.split_at(events.len() / 2);
        backend.record(a).unwrap();
        backend.record(b).unwrap();
        assert_eq!(backend.fsyncs(), 0, "record only stages");
        backend.flush_durable().unwrap();
        assert_eq!(backend.fsyncs(), 1);
        // Nothing staged: flush is a no-op.
        backend.flush_durable().unwrap();
        assert_eq!(backend.fsyncs(), 1);
        // More records stage again; the next flush fsyncs once more.
        r.comment(
            "alice",
            &crate::repo::EntryId::from_title("DATES"),
            "2014-08-01",
            "more",
        )
        .unwrap();
        backend.record(&r.drain_events()).unwrap();
        backend.flush_durable().unwrap();
        assert_eq!(backend.fsyncs(), 2);
        assert_eq!(backend.restore().unwrap(), r.snapshot());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clone_is_a_fresh_writer_owing_no_fsync() {
        let dir = unique_dir("binlog-clone");
        let r = busy_repository();
        let mut backend = BinaryLogBackend::open(&dir).unwrap();
        backend.set_durability(DurabilityMode::GroupCommit);
        backend.record(&r.drain_events()).unwrap();
        let mut fresh = backend.clone();
        fresh.flush_durable().unwrap();
        assert_eq!(fresh.fsyncs(), 0, "clone owes no fsync");
        backend.flush_durable().unwrap();
        assert_eq!(backend.fsyncs(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_refuses_a_jsonl_directory() {
        let dir = unique_dir("binlog-cross");
        let mut jsonl = EventLogBackend::open(&dir).unwrap();
        let r = busy_repository();
        jsonl.record(&r.drain_events()).unwrap();
        jsonl.checkpoint(&r.snapshot()).unwrap();
        let err = BinaryLogBackend::open(&dir).unwrap_err();
        assert!(matches!(err, RepoError::Persist(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tail_reads_resume_at_frame_boundaries_and_detect_rolls() {
        let dir = unique_dir("binlog-tail");
        let r = busy_repository();
        let mut backend = BinaryLogBackend::open_with_segment_bytes(&dir, 300).unwrap();
        let events = r.drain_events();
        let (a, b) = events.split_at(events.len() / 2);
        backend.record(a).unwrap();
        let generation = backend.current_generation().to_string();
        let (first, offset) = read_tail(&dir, &generation, 0).unwrap().unwrap();
        assert_eq!(first.len(), a.len());
        assert_eq!(offset, generation_len(&dir, &generation).unwrap());
        // Unchanged log: metadata-only poll, no events.
        let (none, same) = read_tail(&dir, &generation, offset).unwrap().unwrap();
        assert!(none.is_empty());
        assert_eq!(same, offset);
        // New events resume exactly after the consumed prefix.
        backend.record(b).unwrap();
        let (rest, end) = read_tail(&dir, &generation, offset).unwrap().unwrap();
        assert_eq!(rest.len(), b.len());
        assert_eq!(end, generation_len(&dir, &generation).unwrap());
        // A checkpoint rolls the generation; the old offset over-shoots
        // the (now empty) new generation: rebase signal.
        backend.checkpoint(&r.snapshot()).unwrap();
        let rolled = backend.current_generation().to_string();
        assert_eq!(read_tail(&dir, &rolled, end).unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }
}
