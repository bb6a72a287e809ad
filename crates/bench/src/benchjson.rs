//! Machine-readable benchmark artifacts.
//!
//! Every tracked benchmark (`infer_bench`'s `BENCH_inference.json`, the
//! serving sweeps' `BENCH_serve.json`) shares one artifact shape so the
//! per-commit perf trajectory can be diffed uniformly: a top-level object
//! naming the benchmark, dataset and run sizing, plus a `rows` array of
//! flat per-cell objects. This module is the single writer for that
//! shape — harness binaries format their rows and hand them in.

use std::fmt::Write as _;

/// Builder for one benchmark artifact in the shared shape.
#[derive(Debug, Clone)]
pub struct BenchArtifact {
    pub(crate) bench: String,
    pub(crate) dataset: String,
    batch: usize,
    pub(crate) seed: u64,
    threads: usize,
    /// Extra top-level `(key, raw JSON value)` fields, emitted between
    /// `threads` and `rows` in insertion order.
    fields: Vec<(String, String)>,
    rows: Vec<String>,
}

impl BenchArtifact {
    /// Starts an artifact for benchmark `bench` over `dataset`. `batch`
    /// is the headline batch size — the single measured batch for
    /// fixed-batch harnesses (`infer_bench`), the largest (gate) batch
    /// for sweeps; sweep rows carry their own per-row `"batch"` field.
    pub fn new(
        bench: impl Into<String>,
        dataset: impl Into<String>,
        batch: usize,
        seed: u64,
        threads: usize,
    ) -> Self {
        BenchArtifact {
            bench: bench.into(),
            dataset: dataset.into(),
            batch,
            seed,
            threads,
            fields: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Adds one harness-specific top-level field: `key` plus a
    /// preformatted raw JSON value (e.g. `infer_bench`'s
    /// `"baseline": {"backend": "cycle_accurate", "shards": 1}`).
    pub fn push_field(&mut self, key: impl Into<String>, raw_value: String) {
        self.fields.push((key.into(), raw_value));
    }

    /// Appends one row: a preformatted flat JSON object literal, e.g.
    /// `{"shards": 4, "inf_s": 123.0}`.
    pub fn push_row(&mut self, row: String) {
        self.rows.push(row);
    }

    /// The artifact as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"bench\": \"{}\",\n  \"dataset\": \"{}\",\n  \"batch\": {},\n  \
             \"seed\": {},\n  \"threads\": {}",
            self.bench, self.dataset, self.batch, self.seed, self.threads
        );
        for (key, value) in &self.fields {
            let _ = write!(out, ",\n  \"{key}\": {value}");
        }
        out.push_str(",\n  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            let _ = writeln!(out, "    {row}{comma}");
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the artifact to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Stamps the artifact with a `"run"` field describing the
    /// environment that produced it: the git revision (`GITHUB_SHA` in
    /// CI, `git rev-parse HEAD` locally), the raw `MATADOR_THREADS`
    /// setting (or `null` when unset), the host's logical CPU count,
    /// the turbo datapath's runtime-selected transpose and count kernels,
    /// and an ISO-8601 UTC timestamp. Perf numbers without this context
    /// are unreviewable a week later — every artifact writer calls this
    /// once before `write`.
    pub fn push_run_metadata(&mut self) {
        let threads_env = match std::env::var("MATADOR_THREADS") {
            Ok(v) => format!("\"{}\"", json_escape(&v)),
            Err(_) => "null".to_owned(),
        };
        let cpus = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        let kernels = matador_sim::host_kernels();
        self.push_field(
            "run",
            format!(
                "{{\"git_rev\": \"{}\", \"matador_threads\": {threads_env}, \
                 \"host_cpus\": {cpus}, \"turbo_kernels\": {{\"transpose\": \"{}\", \
                 \"count\": \"{}\"}}, \"timestamp\": \"{}\"}}",
                json_escape(&git_rev()),
                kernels.transpose.name(),
                kernels.count.name(),
                iso8601_utc(now)
            ),
        );
    }
}

/// Escapes a string for embedding inside a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The commit the artifact was produced from: `GITHUB_SHA` when CI set
/// it, `git rev-parse HEAD` otherwise, `"unknown"` outside a checkout.
fn git_rev() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return sha;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Formats a Unix timestamp as `YYYY-MM-DDThh:mm:ssZ` without a date
/// crate, via the standard civil-from-days conversion (Howard Hinnant's
/// `chrono`-free algorithm — exact for the whole proleptic Gregorian
/// calendar, so no leap-year edge cases to get wrong).
fn iso8601_utc(unix_secs: u64) -> String {
    let days = (unix_secs / 86_400) as i64;
    let rem = unix_secs % 86_400;
    let (hh, mm, ss) = (rem / 3_600, (rem % 3_600) / 60, rem % 60);
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}T{hh:02}:{mm:02}:{ss:02}Z")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_shape_matches_the_inference_artifact() {
        let mut artifact = BenchArtifact::new("serve_throughput", "KWS-6", 256, 2024, 8);
        artifact.push_row("{\"shards\": 1, \"inf_s\": 10.0}".to_string());
        artifact.push_row("{\"shards\": 4, \"inf_s\": 40.0}".to_string());
        let json = artifact.to_json();
        assert!(json.starts_with("{\n  \"bench\": \"serve_throughput\""));
        assert!(json.contains("\"dataset\": \"KWS-6\""));
        assert!(json.contains("\"batch\": 256"));
        assert!(json.contains("\"rows\": [\n"));
        assert!(json.contains("    {\"shards\": 1, \"inf_s\": 10.0},\n"));
        assert!(json.contains("    {\"shards\": 4, \"inf_s\": 40.0}\n"));
        assert!(json.ends_with("  ]\n}\n"));
    }

    #[test]
    fn empty_rows_still_form_a_valid_document() {
        let artifact = BenchArtifact::new("x", "y", 0, 0, 1);
        assert!(artifact.to_json().contains("\"rows\": [\n  ]\n}\n"));
    }

    #[test]
    fn extra_fields_sit_between_threads_and_rows() {
        let mut artifact = BenchArtifact::new("inference_throughput", "KWS-6", 1024, 2024, 8);
        artifact.push_field(
            "baseline",
            "{\"backend\": \"cycle_accurate\", \"shards\": 1}".to_string(),
        );
        let json = artifact.to_json();
        let threads = json.find("\"threads\": 8").expect("threads present");
        let baseline = json.find("\"baseline\": {").expect("baseline present");
        let rows = json.find("\"rows\": [").expect("rows present");
        assert!(threads < baseline && baseline < rows, "{json}");
    }

    #[test]
    fn run_metadata_has_every_key() {
        let mut artifact = BenchArtifact::new("x", "y", 0, 0, 1);
        artifact.push_run_metadata();
        let json = artifact.to_json();
        for key in [
            "git_rev",
            "matador_threads",
            "host_cpus",
            "turbo_kernels",
            "transpose",
            "count",
            "timestamp",
        ] {
            assert!(
                json.contains(&format!("\"{key}\": ")),
                "missing {key}: {json}"
            );
        }
    }

    #[test]
    fn iso8601_handles_epoch_and_leap_years() {
        assert_eq!(iso8601_utc(0), "1970-01-01T00:00:00Z");
        // 2000-02-29T12:00:00Z — a century leap day.
        assert_eq!(iso8601_utc(951_825_600), "2000-02-29T12:00:00Z");
        // 2024-01-01T00:00:00Z.
        assert_eq!(iso8601_utc(1_704_067_200), "2024-01-01T00:00:00Z");
        // 2023-12-31T23:59:59Z — the second before.
        assert_eq!(iso8601_utc(1_704_067_199), "2023-12-31T23:59:59Z");
    }

    #[test]
    fn json_escape_handles_quotes_and_controls() {
        assert_eq!(json_escape("tenant=\"3\""), "tenant=\\\"3\\\"");
        assert_eq!(json_escape("a\\b\n"), "a\\\\b\\n");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
