//! The binary log format: CRC frames, [`FrameCodec`], behind the
//! segmented log engine as [`BinaryLogBackend`].
//!
//! A second on-disk format for [`crate::storage::SegmentedLog`], built
//! for raw replay speed and whole-log corruption detection. Where the
//! JSONL format ([`crate::storage::EventLogBackend`]) writes one JSON
//! line per event (human-friendly, parse- and allocation-bound on
//! replay), this one writes length-prefixed binary *frames* into
//! fixed-size *segment* files:
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
//!   truncates it at open, exactly as for a JSONL line without its `\n`.
//! * Replay is one buffered read per segment plus an in-place frame
//!   scan: no line splitting, no intermediate `String`s, no serde.
//!
//! A log *generation* is the logical unit the checkpoint manifest names
//! (`events-<n>.bin`); on disk it is a run of segment files
//! `events-<n>.bin.000000`, `events-<n>.bin.000001`, … each at most the
//! engine's segment cap long (frames never span segments). Only the last
//! segment is ever appended to, so replicas tail a generation by
//! *global* byte offset — the sum of the sealed segments plus the
//! position in the live one — and an unchanged log costs only metadata
//! calls to poll.
//!
//! Everything but the frame itself — manifest, appender, durability,
//! rolls, repair, pruning, readers — is the engine's, shared with the
//! JSONL format, so one directory layout serves both and
//! [`crate::storage::EventLogBackend::restore_dir`], the `bx_lint` CLI,
//! and [`crate::replica::Federation`] read either.

use std::ops::Range;
use std::path::Path;

use crate::error::RepoError;
use crate::event::RepoEvent;
use crate::storage::{io_err, Codec, EventLogBackend, SegmentedLog, StorageBackend};
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

/// Whether a generation name (from a checkpoint manifest or
/// [`crate::storage::EventLogBackend::read_state_in`]) names a binary
/// segmented log rather than a JSONL one.
pub fn is_binary_generation(name: &str) -> bool {
    name.ends_with(FrameCodec::SUFFIX)
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
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Continue `crc`, the CRC-32 of some prefix, over `bytes`, so
/// `crc32_update(crc32(a), b) == crc32(a ++ b)` without joining them.
pub(crate) fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !crc;
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

/// The little-endian `u32` at `at`.
fn word(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]])
}

/// The binary format: CRC frames (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct FrameCodec;

impl Codec for FrameCodec {
    const SUFFIX: &'static str = ".bin";
    const SEGMENTED: bool = true;

    fn encode(event: &RepoEvent, out: &mut Vec<u8>) -> Result<(), RepoError> {
        encode_frame(event, out);
        Ok(())
    }

    fn frame(buf: &[u8], pos: usize) -> Result<Option<Range<usize>>, String> {
        if buf.len() - pos < FRAME_HEADER {
            return Ok(None);
        }
        let len = word(buf, pos);
        let check = word(buf, pos + 4);
        // Verify the header before trusting `len` for anything — a flipped
        // length byte must read as corruption, not as a huge torn tail.
        if check != len ^ LEN_MASK {
            return Err(format!(
                "frame header check mismatch (len={len:#010x}, check={check:#010x})"
            ));
        }
        let end = pos + FRAME_HEADER + len as usize;
        Ok((end <= buf.len()).then_some(pos..end))
    }

    fn decode(record: &[u8]) -> Result<RepoEvent, String> {
        let stored = word(record, 8);
        let payload = &record[FRAME_HEADER..];
        let computed = crc32(payload);
        if computed != stored {
            return Err(format!(
                "payload CRC mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ));
        }
        decode_event(payload).map_err(|e| format!("payload decode failed: {e}"))
    }
}

/// The binary segmented log: a [`SegmentedLog`] of CRC frames.
pub type BinaryLogBackend = SegmentedLog<FrameCodec>;

/// The files of one generation, in log order: the bare file named after
/// the generation if it exists (a JSONL generation's one file), then its
/// numbered segments `<generation>.NNNNNN` (zero-padded, so lexical order
/// is numeric order). Empty when the generation has never been written —
/// or the directory does not exist.
pub fn segment_files(dir: &Path, generation: &str) -> Result<Vec<String>, RepoError> {
    crate::storage::note_dir_listed();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_err(e)),
    };
    let mut out = Vec::new();
    for entry in entries {
        let name = entry.map_err(io_err)?.file_name();
        let name = name.to_string_lossy();
        if generation_of(&name) == generation {
            out.push(name.into_owned());
        }
    }
    out.sort();
    Ok(out)
}

/// The generation a log file belongs to: its name without the
/// `.NNNNNN` segment index, if it has one.
pub(crate) fn generation_of(file: &str) -> &str {
    match file.rsplit_once('.') {
        Some((generation, index))
            if index.len() == 6 && index.bytes().all(|b| b.is_ascii_digit()) =>
        {
            generation
        }
        _ => file,
    }
}

/// Total on-disk length of a generation — the sum of its files' sizes.
/// This is the "end offset" a fully caught-up tail sits at, so an
/// unchanged log is detected by metadata alone.
pub(crate) fn generation_len(dir: &Path, generation: &str) -> Result<u64, RepoError> {
    let mut total = 0;
    for name in segment_files(dir, generation)? {
        total += std::fs::metadata(dir.join(&name)).map_err(io_err)?.len();
    }
    Ok(total)
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
/// corruption aborts the conversion with the typed
/// [`RepoError::CorruptFrame`], whichever the source format.
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
        let occupied = std::fs::read_dir(dst).map_err(io_err)?.next().is_some();
        if occupied {
            return Err(RepoError::Persist(format!(
                "destination `{}` already has contents; refusing to merge a conversion into it",
                dst.display()
            )));
        }
    }
    let (base, generation) = EventLogBackend::read_state_in(src)?;
    let events = crate::storage::read_generation(src, &generation, 0, None, pool)?
        .unwrap_or_default()
        .events;
    let mut target: Box<dyn StorageBackend> = if to_binary {
        Box::new(BinaryLogBackend::open(dst)?)
    } else {
        Box::new(EventLogBackend::open(dst)?)
    };
    if src.join("checkpoint.json").exists() {
        target.checkpoint(&base)?;
    }
    target.record(&events)?;
    target.flush_durable()?;
    Ok(events.len())
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
        assert_eq!(crc32_update(crc32(b"1234"), b"56789"), 0xCBF4_3926);
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
    fn a_conversion_is_durable_when_it_returns() {
        let r = busy_repository();
        let src = unique_dir("logconv-durable-src");
        let mut source = EventLogBackend::open(&src).unwrap();
        source.record(&r.drain_events()).unwrap();
        source.flush_durable().unwrap();
        // No checkpoint, so no manifest rename syncs a directory. The two
        // syncs are the open's, of the parent of the directory it
        // creates, and the flush's, of that directory once the converted
        // records created their first file.
        let bin = unique_dir("logconv-durable-bin");
        let back = unique_dir("logconv-durable-back");
        for (from, to, to_binary) in [(&src, &bin, true), (&bin, &back, false)] {
            let before = crate::storage::dirs_synced();
            convert_log_dir(from, to, to_binary).unwrap();
            assert_eq!(
                crate::storage::dirs_synced() - before,
                2,
                "a new directory or records left staged"
            );
            assert_eq!(EventLogBackend::restore_dir(to).unwrap(), r.snapshot());
        }
        for dir in [src, bin, back] {
            std::fs::remove_dir_all(dir).ok();
        }
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
}
