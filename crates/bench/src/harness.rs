//! The code every serving harness shares: `chaos_bench`, `infer_bench`,
//! `loadgen`, `hetero_sweep`, `serve_sweep` and `compile_bench` parse
//! their flags with [`Flags`], build their workload with [`Kws6`], write
//! their artifacts with [`write_outputs`] and exit through [`main`].

use crate::benchjson::BenchArtifact;
use crate::cache::{DesignCache, ModelCache};
use crate::eval::{bad_arg, model_key_for, parse_positive_list, EvalOptions};
use crate::metrics_out::write_metrics_snapshot;
use matador::config::MatadorConfig;
use matador::design::AcceleratorDesign;
use matador_datasets::{generate, Dataset, DatasetKind};
use rand::rngs::SmallRng;
use rand::Rng;
use std::str::FromStr;
use tsetlin::bits::BitVec;
use tsetlin::model::TrainedModel;

/// Runs a harness body and exits 0 when every gate passed, 1 when a gate
/// failed, and 2 on an error — a malformed flag included.
pub fn main(run: fn() -> Result<bool, matador::Error>) {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// A harness command line after one left-to-right pass: the values of
/// the bin's declared value flags, the declared switches present, and
/// [`EvalOptions`] parsed from every argument the bin did not declare.
#[derive(Debug)]
pub struct Flags {
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
    /// `--quick` / `--seed` and the run sizing they select.
    pub opts: EvalOptions,
}

impl Flags {
    /// Parses the process arguments: each flag in `values` takes the
    /// next argument as its value, each flag in `switches` stands alone,
    /// and everything else goes to [`EvalOptions::from_args`].
    ///
    /// # Errors
    ///
    /// A [`bad_arg`] error when a value flag ends the line or is followed
    /// by another `--` flag, and any [`EvalOptions::from_args`] error.
    pub fn parse(
        values: &[&'static str],
        switches: &[&'static str],
    ) -> Result<Self, matador::Error> {
        Self::parse_from(std::env::args().skip(1), values, switches)
    }

    /// [`Flags::parse`] over `args`.
    fn parse_from(
        args: impl IntoIterator<Item = String>,
        values: &[&'static str],
        switches: &[&'static str],
    ) -> Result<Self, matador::Error> {
        let mut found = Vec::new();
        let mut present = Vec::new();
        let mut rest = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if let Some(&flag) = values.iter().find(|&&f| f == arg) {
                match args.next() {
                    // A flag where the value belongs means the value was
                    // left out: `--out --seed 3` must not write an artifact
                    // named `--seed`.
                    Some(value) if value.starts_with("--") => {
                        return Err(bad_arg(format!(
                            "{flag} requires a value, found flag '{value}'"
                        )));
                    }
                    Some(value) => found.push((flag, value)),
                    None => return Err(bad_arg(format!("{flag} requires a value"))),
                }
            } else if let Some(&switch) = switches.iter().find(|&&s| s == arg) {
                present.push(switch);
            } else {
                rest.push(arg);
            }
        }
        Ok(Flags {
            values: found,
            switches: present,
            opts: EvalOptions::from_args(rest)?,
        })
    }

    /// Every value given for `flag`, in command-line order.
    fn raw<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> {
        self.values
            .iter()
            .filter(move |(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// `flag`'s value parsed as a `T` that satisfies `valid`, or `None`
    /// when the flag is absent. Every occurrence is checked and the last
    /// one wins.
    ///
    /// # Errors
    ///
    /// A [`bad_arg`] error `"{flag} '{value}' {rule}"` when a value does
    /// not parse or fails `valid`.
    pub fn value<T: FromStr>(
        &self,
        flag: &str,
        valid: impl Fn(&T) -> bool,
        rule: &str,
    ) -> Result<Option<T>, matador::Error> {
        let mut last = None;
        for value in self.raw(flag) {
            let parsed = value.parse::<T>().ok().filter(&valid);
            last = Some(parsed.ok_or_else(|| bad_arg(format!("{flag} '{value}' {rule}")))?);
        }
        Ok(last)
    }

    /// [`Flags::value`] for a number that must be above zero.
    ///
    /// # Errors
    ///
    /// As [`Flags::value`], with the rule `is not positive`.
    pub fn positive<T: FromStr + Default + PartialOrd>(
        &self,
        flag: &str,
    ) -> Result<Option<T>, matador::Error> {
        self.value(flag, |v: &T| *v > T::default(), "is not positive")
    }

    /// `flag`'s comma-separated list of positive integers, or `None` when
    /// the flag is absent.
    ///
    /// # Errors
    ///
    /// As [`parse_positive_list`], for every occurrence.
    pub fn list(&self, flag: &str) -> Result<Option<Vec<usize>>, matador::Error> {
        let mut last = None;
        for value in self.raw(flag) {
            last = Some(parse_positive_list(flag, value)?);
        }
        Ok(last)
    }

    /// `flag`'s last value as given, or `None` when the flag is absent.
    pub fn string(&self, flag: &str) -> Option<String> {
        self.raw(flag).last().map(str::to_owned)
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }
}

/// The workload every serving harness runs: the KWS-6 dataset at the
/// run's sizing and the model trained on it through [`ModelCache`].
#[derive(Debug)]
pub struct Kws6 {
    /// The generated train/test split.
    pub data: Dataset,
    model: TrainedModel,
    /// Worker threads used for training and design generation.
    pub threads: usize,
}

impl Kws6 {
    /// The dataset under harness runs.
    pub const KIND: DatasetKind = DatasetKind::Kws6;

    /// Generates the dataset for `opts` and trains (or cache-loads) the
    /// model, announcing the step on stderr as `bin`.
    pub fn train(bin: &str, opts: &EvalOptions) -> Self {
        eprintln!(
            "[{bin}] {}: training model + generating accelerator…",
            Self::KIND
        );
        let threads = matador_par::configured_threads();
        let data = generate(Self::KIND, opts.sizes, opts.seed);
        let model = ModelCache::global().train_cached(
            &model_key_for(Self::KIND, opts),
            &data.train,
            threads,
        );
        Kws6 {
            data,
            model,
            threads,
        }
    }

    /// Generates (or cache-loads) the accelerator for the model under
    /// `design_name`, on a bus of `bus_width` bits or the default one.
    /// The name is part of the [`DesignCache`] key, so each harness keeps
    /// its own.
    pub fn design(&self, design_name: &str, bus_width: Option<usize>) -> AcceleratorDesign {
        let mut builder = MatadorConfig::builder().design_name(design_name);
        if let Some(width) = bus_width {
            builder = builder.bus_width(width);
        }
        let config = builder.build().expect("bus widths 1..=64 are valid");
        DesignCache::global().generate_cached(&self.model, &config, self.threads)
    }

    /// `n` inputs taken round-robin from the test split.
    pub fn inputs(&self, n: usize) -> Vec<BitVec> {
        let test = &self.data.test;
        (0..n).map(|i| test[i % test.len()].input.clone()).collect()
    }

    /// An artifact for benchmark `bench` over this dataset, stamped with
    /// the run metadata.
    pub fn artifact(&self, bench: &str, batch: usize, seed: u64) -> BenchArtifact {
        let mut artifact =
            BenchArtifact::new(bench, Self::KIND.to_string(), batch, seed, self.threads);
        artifact.push_run_metadata();
        artifact
    }
}

/// Writes `artifact` to `out` and, with `metrics_out`, the metrics
/// registry snapshot as `{bench}_metrics` at that path plus its `.prom`
/// sibling, printing each path written.
///
/// # Errors
///
/// Propagates the I/O error of any file written.
pub fn write_outputs(
    artifact: &BenchArtifact,
    out: Option<&str>,
    metrics_out: Option<&str>,
) -> Result<(), matador::Error> {
    if let Some(path) = out {
        artifact.write(path).map_err(matador::Error::other)?;
        println!("\nwrote {path}");
    }
    if let Some(path) = metrics_out {
        let bench = format!("{}_metrics", artifact.bench);
        let prom = write_metrics_snapshot(path, &bench, &artifact.dataset, artifact.seed)
            .map_err(matador::Error::other)?;
        println!("wrote {path} + {prom}");
    }
    Ok(())
}

/// The process's model and design cache hits and misses so far, as
/// `model cache {h}h/{m}m, design cache {h}h/{m}m`.
pub fn cache_counts() -> String {
    let (models, designs) = (ModelCache::global(), DesignCache::global());
    format!(
        "model cache {}h/{}m, design cache {}h/{}m",
        models.hits(),
        models.misses(),
        designs.hits(),
        designs.misses()
    )
}

/// Exponential inter-arrival gap with the given mean, in whole cycles.
/// `1 - u` keeps the argument of `ln` strictly positive for u ∈ [0, 1).
pub fn exp_gap(rng: &mut SmallRng, mean: f64) -> u64 {
    let u: f64 = rng.gen();
    (-mean * (1.0 - u).ln()).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use matador_datasets::SplitSizes;

    fn parse(args: &[&str]) -> Result<Flags, matador::Error> {
        Flags::parse_from(
            args.iter().map(|a| a.to_string()),
            &["--shards", "--out", "--tail"],
            &["--gate"],
        )
    }

    #[test]
    fn typed_reads_see_declared_flags_and_the_rest_reaches_eval_options() {
        let flags = parse(&[
            "--quick", "--shards", "4", "--gate", "--seed", "9", "--out", "a.json",
        ])
        .expect("valid");
        assert_eq!(flags.opts.sizes, SplitSizes::QUICK);
        assert_eq!(flags.opts.seed, 9);
        assert_eq!(flags.positive::<usize>("--shards").expect("valid"), Some(4));
        assert_eq!(flags.string("--out").as_deref(), Some("a.json"));
        assert!(flags.switch("--gate"));
        assert_eq!(flags.positive::<f64>("--tail").expect("absent"), None);
        assert_eq!(flags.list("--tail").expect("absent"), None);
        assert_eq!(
            parse(&["--shards", "1,2"])
                .unwrap()
                .list("--shards")
                .unwrap(),
            Some(vec![1, 2])
        );
    }

    #[test]
    fn every_occurrence_is_checked_and_the_last_wins() {
        let flags = parse(&["--shards", "2", "--shards", "3"]).expect("valid");
        assert_eq!(flags.positive::<u32>("--shards").unwrap(), Some(3));
        let flags = parse(&["--shards", "0", "--shards", "3"]).expect("valid");
        let err = flags.positive::<u32>("--shards").unwrap_err();
        assert_eq!(err.to_string(), "--shards '0' is not positive");
    }

    #[test]
    fn value_errors_name_the_flag_the_token_and_the_rule() {
        let flags = parse(&["--tail", "0.5"]).expect("valid");
        let err = flags
            .value("--tail", |&x: &f64| x >= 1.0, "must be a factor >= 1")
            .unwrap_err();
        assert_eq!(err.to_string(), "--tail '0.5' must be a factor >= 1");
        let err = flags.positive::<usize>("--tail").unwrap_err();
        assert_eq!(err.to_string(), "--tail '0.5' is not positive");
    }

    #[test]
    fn a_missing_value_is_an_error_even_when_a_flag_follows() {
        let err = parse(&["--out"]).unwrap_err();
        assert_eq!(err.to_string(), "--out requires a value");
        let err = parse(&["--out", "--seed", "3"]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "--out requires a value, found flag '--seed'"
        );
        // A single dash is a value, so a negative number reaches the
        // typed read and its rule.
        let flags = parse(&["--tail", "-1"]).expect("valid");
        assert!(flags.positive::<f64>("--tail").is_err());
    }

    #[test]
    fn undeclared_arguments_fail_as_eval_options_errors() {
        for (args, text) in [
            (&["--bogus"][..], "unknown flag '--bogus'"),
            (&["stray"][..], "unexpected argument 'stray'"),
            (&["--seed", "abc"][..], "--seed value 'abc'"),
            // A switch is not a value flag: what follows it is parsed
            // on its own.
            (&["--gate", "4"][..], "unexpected argument '4'"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.to_string().contains(text), "{args:?}: {err}");
        }
    }
}
