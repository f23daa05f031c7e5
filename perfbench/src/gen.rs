//! Seeded input generation. Everything the program under test receives —
//! entries, operations, query terms — comes from here, drawn from
//! `bx_examples::benchmark::Lcg` streams derived from the `--seed`
//! argument, so one seed always yields the same inputs.

use bx_core::{EntryId, EntryStatus, ExampleEntry, ExampleType};
use bx_examples::benchmark::Lcg;

/// Search vocabulary. Entry text and query terms are both drawn from it
/// by zipfian rank, so low ranks are common (broad queries, long
/// postings) and high ranks are rare (narrow queries).
const VOCAB_SIZE: usize = 160;
const STEMS: [&str; 32] = [
    "lens",
    "schema",
    "model",
    "view",
    "update",
    "graph",
    "table",
    "tree",
    "query",
    "record",
    "spreadsheet",
    "provenance",
    "grammar",
    "triple",
    "mapping",
    "relation",
    "composer",
    "family",
    "person",
    "address",
    "uml",
    "rdbms",
    "string",
    "date",
    "order",
    "join",
    "variant",
    "edit",
    "delta",
    "trace",
    "sync",
    "merge",
];

/// The `rank`-th vocabulary word: the stems, then stems with a numeric
/// suffix (`lens2`, …), all distinct alphanumeric tokens.
pub fn word(rank: usize) -> String {
    let stem = STEMS[rank % STEMS.len()];
    match rank / STEMS.len() {
        0 => stem.to_string(),
        k => format!("{stem}{k}"),
    }
}

/// Inverse-CDF sampler of a zipfian distribution over `0..n`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(exponent)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Lcg) -> usize {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 42) as f64;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The accounts every primary registers: the curator founds, `author`
/// writes and revises entries, `member` comments, `reviewer` approves.
pub const CURATOR: &str = "curator";
pub const AUTHOR: &str = "author";
pub const MEMBER: &str = "member";
pub const REVIEWER: &str = "reviewer";

/// Zipfian words joined up to exactly `chars` characters (the last word
/// may be cut), so entry sizes do not depend on which words were drawn.
fn sentence(rng: &mut Lcg, zipf: &Zipf, chars: usize) -> String {
    let mut text = String::new();
    while text.len() < chars {
        if !text.is_empty() {
            text.push(' ');
        }
        text.push_str(&word(zipf.sample(rng)));
    }
    text.truncate(chars);
    text.push('.');
    text
}

/// A template-valid entry titled `title` whose text fields are zipfian
/// draws from the vocabulary.
pub fn entry(title: &str, rng: &mut Lcg, terms: &Zipf) -> ExampleEntry {
    ExampleEntry::builder(title)
        .of_type(ExampleType::Precise)
        .overview(&sentence(rng, terms, 90))
        .models(&sentence(rng, terms, 70))
        .consistency(&sentence(rng, terms, 60))
        .restoration(&sentence(rng, terms, 40), &sentence(rng, terms, 40))
        .discussion(&sentence(rng, terms, 100))
        .author(AUTHOR)
        .build()
        .expect("generated entries fill every required template field")
}

/// The title of source `source`'s `i`-th entry.
pub fn title(source: usize, i: usize) -> String {
    format!("S{source}-E{i:05}")
}

/// One client operation.
#[derive(Debug, Clone)]
pub enum Op {
    Comment {
        source: usize,
        id: EntryId,
        text: String,
    },
    Revise {
        source: usize,
        id: EntryId,
        entry: ExampleEntry,
    },
    Contribute {
        source: usize,
        entry: ExampleEntry,
    },
    /// `request_review` then `approve`: one operation, two mutations.
    Review {
        source: usize,
        id: EntryId,
    },
    /// A conjunctive query, federated (`source == None`) or restricted to
    /// one source.
    Query {
        source: Option<usize>,
        terms: Vec<String>,
    },
    /// A forced catch-up with nothing new to apply: the near-idle poll a
    /// serving node runs between writes.
    Poll,
    /// A cold `Federation::open_on` over every source.
    Open,
}

/// Relative weights of the operation kinds in a workload's mix.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mix {
    pub comment: u32,
    pub revise: u32,
    pub contribute: u32,
    pub review: u32,
    pub query: u32,
    pub poll: u32,
    pub open: u32,
}

/// Per-source generator state: entry count and each entry's curation
/// status, mirrored so every generated mutation is one the repository
/// accepts.
#[derive(Debug, Clone)]
struct SourceModel {
    statuses: Vec<EntryStatus>,
    /// Entry popularity: zipfian over the preloaded entries.
    popularity: Zipf,
}

/// The seeded operation stream of one workload.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: Lcg,
    mix: Mix,
    terms: Zipf,
    sources: Vec<SourceModel>,
    comments: u64,
}

impl OpStream {
    /// A stream over `sources` primaries of `preload` entries each.
    pub fn new(seed: u64, mix: Mix, sources: usize, preload: usize) -> OpStream {
        let popularity = Zipf::new(preload, 1.0);
        OpStream {
            rng: Lcg::new(seed),
            mix,
            terms: Zipf::new(VOCAB_SIZE, 1.0),
            sources: (0..sources)
                .map(|_| SourceModel {
                    statuses: vec![EntryStatus::Provisional; preload],
                    popularity: popularity.clone(),
                })
                .collect(),
            comments: 0,
        }
    }

    /// A preload entry for `source` (drawn from this stream's generator).
    pub fn preload_entry(&mut self, source: usize, i: usize) -> ExampleEntry {
        entry(&title(source, i), &mut self.rng, &self.terms)
    }

    /// The mix as `(weight, kind)` pairs.
    fn kinds(&self) -> [(u32, u32); 7] {
        let m = self.mix;
        [
            (m.comment, 0),
            (m.revise, 1),
            (m.contribute, 2),
            (m.review, 3),
            (m.query, 4),
            (m.poll, 5),
            (m.open, 6),
        ]
    }

    /// The next write of the mix, drawn at random (for set-up tails).
    pub fn next_write(&mut self) -> Op {
        let writes: Vec<(u32, u32)> = self
            .kinds()
            .into_iter()
            .filter(|(w, k)| *w > 0 && *k <= 3)
            .collect();
        let total: u32 = writes.iter().map(|(w, _)| w).sum();
        let mut pick = self.rng.below(total as usize) as u32;
        for (weight, kind) in writes {
            if pick < weight {
                return self.write_of_kind(kind);
            }
            pick -= weight;
        }
        unreachable!("pick is below the write total")
    }

    /// `n` operations holding exactly the mix's shares (rounded down; the
    /// remainder goes to the heaviest kinds) in seeded random order. Every
    /// epoch then holds the same number of each kind, so per-epoch figures
    /// do not depend on how many slow operations a draw happened to hold.
    pub fn epoch(&mut self, n: usize) -> Vec<Op> {
        let mut weighted: Vec<(u32, u32)> =
            self.kinds().into_iter().filter(|(w, _)| *w > 0).collect();
        let total: u32 = weighted.iter().map(|(w, _)| w).sum();
        let mut kinds: Vec<u32> = Vec::with_capacity(n);
        for (weight, kind) in &weighted {
            kinds.extend(std::iter::repeat_n(
                *kind,
                n * *weight as usize / total as usize,
            ));
        }
        weighted.sort_by_key(|&(weight, _)| std::cmp::Reverse(weight));
        for (_, kind) in weighted.iter().cycle().take(n - kinds.len()) {
            kinds.push(*kind);
        }
        for i in (1..kinds.len()).rev() {
            let j = self.rng.below(i + 1);
            kinds.swap(i, j);
        }
        kinds
            .into_iter()
            .map(|kind| self.op_of_kind(kind))
            .collect()
    }

    fn op_of_kind(&mut self, kind: u32) -> Op {
        match kind {
            0..=3 => self.write_of_kind(kind),
            4 => self.query(),
            5 => Op::Poll,
            _ => Op::Open,
        }
    }

    fn write_of_kind(&mut self, kind: u32) -> Op {
        let source = self.rng.below(self.sources.len());
        if kind == 2 {
            let i = self.sources[source].statuses.len();
            self.sources[source].statuses.push(EntryStatus::Provisional);
            let entry = entry(&title(source, i), &mut self.rng, &self.terms);
            return Op::Contribute { source, entry };
        }
        let model = &self.sources[source];
        let i = model.popularity.sample(&mut self.rng);
        let id = EntryId::from_title(&title(source, i));
        let status = model.statuses[i];
        // A review of an entry that is not provisional becomes a revise:
        // revising is the only way out of `Approved`.
        let kind = if kind == 3 && status != EntryStatus::Provisional {
            1
        } else {
            kind
        };
        match kind {
            0 => {
                self.comments += 1;
                Op::Comment {
                    source,
                    id,
                    text: format!("Checked again, note {:06}.", self.comments),
                }
            }
            1 => {
                self.sources[source].statuses[i] = EntryStatus::Provisional;
                let entry = entry(&title(source, i), &mut self.rng, &self.terms);
                Op::Revise { source, id, entry }
            }
            _ => {
                self.sources[source].statuses[i] = EntryStatus::Approved;
                Op::Review { source, id }
            }
        }
    }

    /// Broad queries take one common term; narrow ones add a rarer
    /// second term. Half are federated, half target one source.
    fn query(&mut self) -> Op {
        let first = self.terms.sample(&mut self.rng);
        let mut terms = vec![word(first)];
        if self.rng.below(2) == 0 {
            let second = VOCAB_SIZE / 4 + self.rng.below(VOCAB_SIZE - VOCAB_SIZE / 4);
            terms.push(word(second));
        }
        let source = match self.rng.below(2) {
            0 => None,
            _ => Some(self.rng.below(self.sources.len())),
        };
        Op::Query { source, terms }
    }

    /// A fixed query sample (the verification set): the commonest terms
    /// alone and paired with rarer ones.
    pub fn query_sample() -> Vec<Vec<String>> {
        let mut sample: Vec<Vec<String>> = (0..8).map(|r| vec![word(r)]).collect();
        sample.extend((0..8).map(|r| vec![word(r), word(VOCAB_SIZE / 2 + r)]));
        sample
    }
}
