//! The one machine-readable bench record format: every `BENCH_*.json` /
//! `bench/baseline*.json` document the CI `bench-smoke` job writes and
//! gates on is a list of [`Record`]s laid out by a [`Schema`].
//!
//! A schema is **data**: the unit string, the ordered field descriptors
//! (name + [`Kind`]), which fields form the row key, and one
//! machine-normalized [`Stat`] — a ratio of two numbers measured
//! interleaved in the same session, so machine speed and load cancel and
//! a CI runner can be gated against a baseline committed from different
//! hardware. Everything else — [`Schema::format_document`],
//! [`Schema::parse_document`], [`Schema::gated_count`],
//! [`Schema::regressions`], [`Schema::threshold_failures`] and the
//! [`finish`] runner — is written once and driven by the table.
//!
//! The format is deliberately line-oriented JSON — one result object per
//! line — so it round-trips through this module's dependency-free scanner
//! (the build environment has no serde) while staying valid JSON for any
//! downstream tooling.
//!
//! Every comparison goes through [`within`]: only a *definite* "within
//! budget" passes, so a NaN or infinite statistic (a run that completed
//! nothing, a zero reference) is a failure line, never a silent pass.

use crate::{die, Args};
use Kind::{Derived, Fixed, Int, Sci, Text};

/// How a field is stored in a [`Record`] and rendered in a document.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Quoted string, stored in [`Record::text`].
    Text,
    /// Unsigned integer, stored (exactly, below 2^53) in [`Record::nums`].
    Int,
    /// `{:.n}` decimal.
    Fixed(usize),
    /// `{:e}` (shortest round-trip) or `{:.ne}` scientific.
    Sci(Option<usize>),
    /// Derived on write, never stored or trusted on parse: stored field
    /// `.0` ÷ stored field `.1`, rendered `{:.n}`.
    Derived(&'static str, &'static str, usize),
}

/// One column of a schema.
pub struct Field {
    pub name: &'static str,
    pub kind: Kind,
}

/// The machine-normalized gate statistic of a schema.
pub enum Stat {
    /// `value` of the row whose `field` is a numerator role ÷ `value` of
    /// the row whose `field` is that role's denominator, among the rows
    /// sharing one key. `pairs` lists the `(numerator, denominator)` roles
    /// (`iterative/recursive`, `into/alloc`, `coalesced/batch1`); the rows
    /// of one key play one pair.
    Roles {
        field: &'static str,
        pairs: &'static [(&'static str, &'static str)],
        value: &'static str,
    },
    /// Field `num` ÷ field `den` of the row itself.
    Fields { num: &'static str, den: &'static str },
}

/// Which direction of a statistic is an improvement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

/// A record layout plus its gate: what the seven bench binaries differ in.
pub struct Schema {
    /// Short name: the binary is `bench_<name>`, the default `-out`
    /// document `BENCH_<name>.json`.
    pub name: &'static str,
    /// The envelope's `"unit"` string.
    pub unit: &'static str,
    /// Columns in document order.
    pub fields: &'static [Field],
    /// The fields identifying a gated entry across documents.
    pub key: &'static [&'static str],
    pub stat: Stat,
    pub better: Better,
    /// Default `-tol`: how far the statistic may move the wrong way
    /// relative to the baseline's (`1.25` = 25%).
    pub tol: f64,
}

/// An absolute bar on the current run alone (no baseline needed).
pub struct Bar {
    pub name: &'static str,
    /// The gated quantity: field `.0` ÷ field `.1` of every row, or
    /// `None` for the schema's own statistic.
    pub of: Option<(&'static str, &'static str)>,
    /// `Lower`: the quantity must be `<= bound`; `Higher`: `>= bound`.
    pub better: Better,
    pub bound: f64,
}

/// One measured row: the schema's [`Kind::Text`] fields and its numeric
/// stored fields, each in schema order.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub text: Vec<String>,
    pub nums: Vec<f64>,
}

/// The one comparison every gate uses: `value` is finite and definitely
/// on the good side of `bound`. NaN compares false and so fails.
pub fn within(value: f64, bound: f64, better: Better) -> bool {
    value.is_finite()
        && match better {
            Better::Lower => value <= bound,
            Better::Higher => value >= bound,
        }
}

/// Extract the value following `"key":` on `line`, up to `,` or `}`.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

impl Schema {
    /// Kind of field `name` and its index into [`Record::text`] (text
    /// fields) or [`Record::nums`] (numeric stored fields).
    fn slot(&self, name: &str) -> (Kind, usize) {
        let (mut text, mut nums) = (0, 0);
        for f in self.fields {
            let at = match f.kind {
                Kind::Text => &mut text,
                _ => &mut nums,
            };
            if f.name == name {
                return (f.kind, *at);
            }
            if !matches!(f.kind, Kind::Derived(..)) {
                *at += 1;
            }
        }
        panic!("schema {} has no field {name}", self.name)
    }

    /// Build a row from its text fields and numeric stored fields, each
    /// in schema order.
    pub fn row(&self, text: &[&str], nums: &[f64]) -> Record {
        let count = |want_text: bool| {
            let stored = self.fields.iter().filter(|f| !matches!(f.kind, Kind::Derived(..)));
            stored.filter(|f| (f.kind == Kind::Text) == want_text).count()
        };
        assert_eq!(
            (text.len(), nums.len()),
            (count(true), count(false)),
            "{} row shape",
            self.name
        );
        Record { text: text.iter().map(|s| s.to_string()).collect(), nums: nums.to_vec() }
    }

    /// Numeric value of field `name` (derived fields are computed).
    pub fn num(&self, r: &Record, name: &str) -> f64 {
        match self.slot(name) {
            (Kind::Text, _) => panic!("schema {} field {name} is text", self.name),
            (Kind::Derived(num, den, _), _) => self.num(r, num) / self.num(r, den),
            (_, i) => r.nums[i],
        }
    }

    /// Field `name` exactly as a document shows it (minus string quotes).
    pub fn render(&self, r: &Record, name: &str) -> String {
        match self.slot(name) {
            (Kind::Text, i) => r.text[i].clone(),
            (Kind::Int, i) => format!("{}", r.nums[i] as u64),
            (Kind::Fixed(p) | Kind::Derived(_, _, p), _) => format!("{:.p$}", self.num(r, name)),
            (Kind::Sci(None), i) => format!("{:e}", r.nums[i]),
            (Kind::Sci(Some(p)), i) => format!("{:.p$e}", r.nums[i]),
        }
    }

    /// The row's key as `name=value` pairs of its rendered key fields —
    /// equal keys name the same gated entry across documents.
    pub fn key_of(&self, r: &Record) -> String {
        let pairs: Vec<String> =
            self.key.iter().map(|k| format!("{k}={}", self.render(r, k))).collect();
        pairs.join(" ")
    }

    /// The role pair `(num, den)` whose numerator row has key `key` in
    /// `doc` — what the statistic of that entry divides — or the ratio's
    /// fields for [`Stat::Fields`].
    fn pair_of(&self, doc: &[Record], key: &str) -> Option<(&'static str, &'static str)> {
        match self.stat {
            Stat::Roles { field, pairs, .. } => pairs.iter().copied().find(|&(num, _)| {
                doc.iter().any(|r| self.key_of(r) == key && self.render(r, field) == num)
            }),
            Stat::Fields { num, den } => Some((num, den)),
        }
    }

    /// Render the full document. `mode` records how the numbers were taken
    /// (`"quick"` for the CI smoke job, `"full"` for committed baselines).
    pub fn format_document(&self, mode: &str, rows: &[Record]) -> String {
        let mut out = format!(
            "{{\n  \"schema\": 1,\n  \"mode\": \"{mode}\",\n  \"unit\": \"{}\",\n  \"results\": [\n",
            self.unit
        );
        for (i, r) in rows.iter().enumerate() {
            let cells: Vec<String> = self
                .fields
                .iter()
                .map(|f| match f.kind {
                    Kind::Text => format!("\"{}\": \"{}\"", f.name, self.render(r, f.name)),
                    _ => format!("\"{}\": {}", f.name, self.render(r, f.name)),
                })
                .collect();
            let sep = if i + 1 == rows.len() { "" } else { "," };
            out.push_str(&format!("    {{{}}}{sep}\n", cells.join(", ")));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parse every result line of a document produced by
    /// [`Schema::format_document`]. Lines lacking any stored field (the
    /// envelope) are skipped, so no real JSON parser is needed; derived
    /// fields are recomputed, not trusted.
    pub fn parse_document(&self, text: &str) -> Vec<Record> {
        let parse_line = |line: &str| {
            let mut r = Record { text: Vec::new(), nums: Vec::new() };
            for f in self.fields {
                match f.kind {
                    Kind::Derived(..) => {}
                    Kind::Text => r.text.push(field(line, f.name)?.to_string()),
                    Kind::Int => r.nums.push(field(line, f.name)?.parse::<u64>().ok()? as f64),
                    _ => r.nums.push(field(line, f.name)?.parse().ok()?),
                }
            }
            Some(r)
        };
        text.lines().filter_map(parse_line).collect()
    }

    /// The gate statistic of the entry `key` within `doc`, or `None` when
    /// a row it needs is absent. Both operands come from one document —
    /// one session — which is what cancels machine speed.
    pub fn statistic(&self, doc: &[Record], key: &str) -> Option<f64> {
        let find = |role: Option<(&str, &str)>| {
            doc.iter().find(|r| {
                self.key_of(r) == key && role.map_or(true, |(f, want)| self.render(r, f) == want)
            })
        };
        Some(match self.stat {
            Stat::Roles { field, value, .. } => {
                let (num, den) = self.pair_of(doc, key)?;
                self.num(find(Some((field, num)))?, value)
                    / self.num(find(Some((field, den)))?, value)
            }
            Stat::Fields { num, den } => {
                let r = find(None)?;
                self.num(r, num) / self.num(r, den)
            }
        })
    }

    /// The entries `doc` can gate, as `(statistic, key, what it
    /// divides)`: one per row ([`Stat::Fields`]) or per numerator-role row
    /// ([`Stat::Roles`]) whose statistic exists.
    fn gated(&self, doc: &[Record]) -> Vec<(f64, String, String)> {
        let anchors = doc.iter().filter(|r| match self.stat {
            Stat::Roles { field, pairs, .. } => {
                pairs.iter().any(|&(num, _)| self.render(r, field) == num)
            }
            Stat::Fields { .. } => true,
        });
        let keys = anchors.map(|r| self.key_of(r));
        keys.filter_map(|key| {
            let (num, den) = self.pair_of(doc, &key)?;
            Some((self.statistic(doc, &key)?, key, format!("{num}/{den}")))
        })
        .collect()
    }

    /// Number of baseline entries the gate can actually enforce. A
    /// baseline that gates nothing is a broken baseline — [`finish`]
    /// refuses it rather than report success.
    pub fn gated_count(&self, baseline: &[Record]) -> usize {
        self.gated(baseline).len()
    }

    /// Compare `current` against `baseline`: for every entry the baseline
    /// gates, the statistic may be at most `tol`× worse than the
    /// baseline's (e.g. `1.25` = fail past a 25% relative regression).
    /// Missing entries and non-finite statistics fail. Returns
    /// human-readable failure lines; empty = pass.
    pub fn regressions(&self, current: &[Record], baseline: &[Record], tol: f64) -> Vec<String> {
        let mut failures = Vec::new();
        for (base, key, what) in self.gated(baseline) {
            let Some(cur) = self.statistic(current, &key) else {
                failures.push(format!("missing result for {key}"));
                continue;
            };
            let worse = match self.better {
                Better::Lower => cur / base,
                Better::Higher => base / cur,
            };
            if !(cur.is_finite() && base.is_finite() && within(worse, tol, Better::Lower)) {
                failures.push(format!(
                    "{key}: {what} = {cur:.3} vs baseline {base:.3} ({worse:.2}x worse, budget {tol:.2}x)"
                ));
            }
        }
        failures
    }

    /// Check an absolute [`Bar`] on `doc` alone. Returns failure lines.
    pub fn threshold_failures(&self, doc: &[Record], bar: &Bar) -> Vec<String> {
        let values = match bar.of {
            None => self.gated(doc),
            Some((num, den)) => doc
                .iter()
                .map(|r| {
                    (self.num(r, num) / self.num(r, den), self.key_of(r), format!("{num}/{den}"))
                })
                .collect(),
        };
        let (bound, cmp) = (bar.bound, if bar.better == Better::Lower { "<=" } else { ">=" });
        let missed = values.into_iter().filter(|(v, ..)| !within(*v, bound, bar.better));
        missed
            .map(|(v, key, what)| {
                format!("{key}: {what} = {v:.3} misses the {} bar ({cmp} {bound:.2})", bar.name)
            })
            .collect()
    }
}

/// Write the `-out` document (default `BENCH_<name>.json`; `-quick`
/// selects the recorded mode).
pub fn write_out(schema: &Schema, args: &Args, rows: &[Record]) {
    let path: String = args.get("out", format!("BENCH_{}.json", schema.name));
    let mode = if args.has("quick") { "quick" } else { "full" };
    std::fs::write(&path, schema.format_document(mode, rows))
        .unwrap_or_else(|e| die(format!("writing {path}: {e}")));
    println!("wrote {path} ({} rows, {mode} mode)", rows.len());
}

/// The tail of every gate binary: write `-out`, gate against the
/// `-check` baseline within `-tol` (default [`Schema::tol`]), refuse a
/// baseline that gates nothing, print the verdict, and exit 1 on any
/// failure — the binary's own `extra_failures` (absolute bars,
/// differential checks) included.
pub fn finish(schema: &Schema, args: &Args, rows: &[Record], extra_failures: Vec<String>) {
    let check: String = args.get("check", String::new());
    let tol: f64 = args.get("tol", schema.tol);
    write_out(schema, args, rows);
    let mut failures = extra_failures;
    let mut summary = format!("{} rows", rows.len());
    if !check.is_empty() {
        let text = std::fs::read_to_string(&check)
            .unwrap_or_else(|e| die(format!("reading baseline {check}: {e}")));
        let baseline = schema.parse_document(&text);
        let gated = schema.gated_count(&baseline);
        if gated == 0 {
            die(format!(
                "baseline {check} gates nothing ({} rows parsed) — regenerate it with bench_{}",
                baseline.len(),
                schema.name
            ));
        }
        failures.extend(schema.regressions(rows, &baseline, tol));
        summary += &format!("; {gated} gated entries within {tol:.2}x of {check}");
    }
    if failures.is_empty() {
        println!("{} gate: OK ({summary})", schema.name);
        return;
    }
    eprintln!("{} gate FAILED:", schema.name);
    for f in &failures {
        eprintln!("  {f}");
    }
    std::process::exit(1);
}

const fn col(name: &'static str, kind: Kind) -> Field {
    Field { name, kind }
}

/// `bench_fft`: one complex transform per `(size, precision)` through
/// the `iterative` (Stockham) and `recursive` (seed) engines
/// (`transform` `c2c`, `series` 1), and the batched padded R2C / unpadded
/// C2R per `(size, series, precision)` through the series-in-lanes path
/// (`lanes`) and the per-series driver (`per_series`), ns per series
/// (`transform` `r2c_padded` / `c2r_unpadded`, `size` the real length
/// `2·N_t`). `precision` is the tier label (`f64`/`f32`/`f16`/`bf16` — the
/// 16-bit tiers share a byte width, not a label); `threads` is the pool
/// width, informational.
pub const FFT: Schema = Schema {
    name: "fft",
    unit: "ns_per_transform",
    fields: &[
        col("size", Int),
        col("series", Int),
        col("transform", Text),
        col("precision", Text),
        col("engine", Text),
        col("threads", Int),
        col("ns_per_transform", Fixed(1)),
    ],
    key: &["size", "series", "transform", "precision"],
    stat: Stat::Roles {
        field: "engine",
        pairs: &[("iterative", "recursive"), ("lanes", "per_series")],
        value: "ns_per_transform",
    },
    better: Better::Lower,
    tol: 1.25,
};

/// `bench_matvec`: one `FftMatvec` apply per `(shape, config, direction)`
/// through the allocating (`alloc`) and zero-allocation (`into`) paths.
pub const MATVEC: Schema = Schema {
    name: "matvec",
    unit: "ns_per_apply",
    fields: &[
        col("shape", Text),
        col("config", Text),
        col("direction", Text),
        col("path", Text),
        col("threads", Int),
        col("ns_per_apply", Fixed(1)),
    ],
    key: &["shape", "config", "direction"],
    stat: Stat::Roles { field: "path", pairs: &[("into", "alloc")], value: "ns_per_apply" },
    better: Better::Lower,
    tol: 1.25,
};
/// The paths differ only by one output-vector allocation, so the ratio
/// sits at ~1.0; the margin absorbs shared-runner scheduler noise.
pub const MATVEC_INTO_NO_SLOWER: Bar =
    Bar { name: "into-no-slower-than-alloc", of: None, better: Better::Lower, bound: 1.10 };

/// `bench_simd`: one kernel call per `(kernel, precision)` with dispatch
/// forced portable vs the detected vector `level` (informational). The
/// `layout_*` rows reuse the two legs for the naive element-by-element
/// loop vs the tiled library pass.
pub const SIMD: Schema = Schema {
    name: "simd",
    unit: "ns_per_call",
    fields: &[
        col("kernel", Text),
        col("precision", Text),
        col("level", Text),
        col("portable_ns", Fixed(1)),
        col("simd_ns", Fixed(1)),
        col("speedup", Derived("portable_ns", "simd_ns", 3)),
    ],
    key: &["kernel", "precision"],
    stat: Stat::Fields { num: "portable_ns", den: "simd_ns" },
    better: Better::Higher,
    tol: 1.25,
};
/// Applied by `bench_simd` to the 16-bit conversion and butterfly rows,
/// the `pointwise_mul` row and `layout_reorder_out` (destination stride
/// 65, no set conflicts to win back): the second leg must be no slower
/// than the first.
pub const SIMD_FLOOR: Bar =
    Bar { name: "no-slower-than-scalar", of: None, better: Better::Higher, bound: 1.0 };
/// Applied by `bench_simd` to the `f32`/`f64` `fft_*` rows and the
/// `sbgemv_freqminor_*` rows: at a vector level every pass of those
/// kernels is a vector kernel or an FMA-context scalar body, worth 5–25×
/// over the portable level's libm `fma` calls; one pass falling back to
/// the plain scalar path (the first Stockham stage did, at 1.7×) drops
/// the row below this bar.
pub const SIMD_FFT_FLOOR: Bar =
    Bar { name: "vector-floor", of: None, better: Better::Higher, bound: 3.0 };

/// Applied by `bench_simd` to the three `layout_*` rows whose
/// destination stride is a power of two (pad, reorder-in, unpad at
/// 256 × 64): the tiled pass must beat the element-by-element loop it
/// replaced, which loses 4–5× to cache-set conflicts there, by 2×. Both
/// legs run interleaved in one process, so the ratio is
/// machine-normalized like the other floors.
pub const LAYOUT_TILE_FLOOR: Bar =
    Bar { name: "layout-tile-floor", of: None, better: Better::Higher, bound: 2.0 };

/// `bench_service`: one open-loop load run per `(shape, mode)`, `mode` =
/// `coalesced` (windows up to `max_batch`) or `batch1`; `threads` is the
/// host's hardware lanes, informational.
pub const SERVICE: Schema = Schema {
    name: "service",
    unit: "requests_per_second",
    fields: &[
        col("shape", Text),
        col("mode", Text),
        col("max_batch", Int),
        col("threads", Int),
        col("offered_rps", Fixed(1)),
        col("throughput_rps", Fixed(1)),
        col("p50_us", Fixed(1)),
        col("p99_us", Fixed(1)),
        col("mean_batch", Fixed(2)),
        col("completed", Int),
        col("rejected", Int),
    ],
    key: &["shape"],
    stat: Stat::Roles { field: "mode", pairs: &[("coalesced", "batch1")], value: "throughput_rps" },
    better: Better::Higher,
    tol: 1.25,
};
/// Coalescing must buy throughput — enforced only where the pool has the
/// lanes to express it (`bench_service` skips below 4).
pub const SERVICE_SATURATION: Bar =
    Bar { name: "saturation", of: None, better: Better::Higher, bound: 1.5 };
/// Windows must genuinely fill: holds on any host, because an overloaded
/// single lane fills windows regardless of core count.
pub const SERVICE_OCCUPANCY: Bar = Bar {
    name: "occupancy",
    of: Some(("mean_batch", "max_batch")),
    better: Better::Higher,
    bound: 0.25,
};

/// `bench_autotune`: one budget-tuned operating point per
/// `(shape, direction, budget)` — the chosen `config`, its Eq. 6 `bound`,
/// its measured error, and both pipelines' cost. The *choice* is
/// host-dependent, hence the looser default tolerance.
pub const AUTOTUNE: Schema = Schema {
    name: "autotune",
    unit: "ns_per_apply",
    fields: &[
        col("shape", Text),
        col("direction", Text),
        col("budget", Sci(None)),
        col("config", Text),
        col("bound", Sci(Some(3))),
        col("measured_error", Sci(Some(3))),
        col("double_ns", Fixed(1)),
        col("tuned_ns", Fixed(1)),
        col("speedup", Derived("double_ns", "tuned_ns", 3)),
    ],
    key: &["shape", "direction", "budget"],
    stat: Stat::Fields { num: "double_ns", den: "tuned_ns" },
    better: Better::Higher,
    tol: 1.5,
};
/// The promise the autotuner sells: measured error within the budget.
pub const AUTOTUNE_PROMISE: Bar = Bar {
    name: "promise",
    of: Some(("measured_error", "budget")),
    better: Better::Lower,
    bound: 1.0,
};
/// All-double is always admissible, so the pick may never be materially
/// slower than it.
pub const AUTOTUNE_NO_SLOWER: Bar = Bar {
    name: "no-slower-than-double",
    of: Some(("tuned_ns", "double_ns")),
    better: Better::Lower,
    bound: 1.10,
};

/// `bench_toeplitz`: one two-level operator per `(shape, direction)`
/// (`shape` = `{or}x{oc}x{ir}x{ic}`) through the circulant embedding
/// and the dense reference, a forward + inverse pass of the real pruned
/// N-d engine beside the complex whole-grid one, plus the operator's
/// peak workspace bytes.
pub const TOEPLITZ: Schema = Schema {
    name: "toeplitz",
    unit: "ns_per_apply",
    fields: &[
        col("shape", Text),
        col("direction", Text),
        col("full_ns", Fixed(1)),
        col("dense_ns", Fixed(1)),
        col("real_fftn_ns", Fixed(1)),
        col("complex_fftn_ns", Fixed(1)),
        col("full_peak_bytes", Int),
        col("full_speedup", Derived("dense_ns", "full_ns", 3)),
        col("real_nd_speedup", Derived("complex_fftn_ns", "real_fftn_ns", 3)),
    ],
    key: &["shape", "direction"],
    stat: Stat::Fields { num: "dense_ns", den: "full_ns" },
    better: Better::Higher,
    tol: 1.5,
};
/// What the real, head-pruned engine is for: on a two-level embedding it
/// does about a third of the complex whole-grid transform's work. Both
/// sides are timed interleaved in one process, so the ratio holds on any
/// host, and a pipeline that falls back to full-grid work misses it.
pub const REAL_ND_FLOOR: Bar = Bar {
    name: "real-nd-floor",
    of: Some(("complex_fftn_ns", "real_fftn_ns")),
    better: Better::Higher,
    bound: 2.0,
};

/// `bench_backend`: one primitive per `(primitive, precision)` on the
/// direct call path vs through `dyn DeviceBackend`.
pub const BACKEND: Schema = Schema {
    name: "backend",
    unit: "ns_per_call",
    fields: &[
        col("primitive", Text),
        col("precision", Text),
        col("direct_ns", Fixed(1)),
        col("trait_ns", Fixed(1)),
        col("overhead", Derived("trait_ns", "direct_ns", 4)),
    ],
    key: &["primitive", "precision"],
    stat: Stat::Fields { num: "trait_ns", den: "direct_ns" },
    better: Better::Lower,
    tol: 1.10,
};
/// One vtable hop plus tier/length validation per *batched* call must
/// amortize to noise.
pub const BACKEND_CEILING: Bar =
    Bar { name: "dispatch-ceiling", of: None, better: Better::Lower, bound: 1.05 };
