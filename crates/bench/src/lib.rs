//! Shared plumbing for the five bench binaries: the command-line
//! readers, the results-file sink, the CSV writer, and the three
//! libraries the binaries are thin `main`s over — [`repro`] (the
//! paper's tables and figures), [`cell`] (one load → warm-up →
//! measure runner on the executed engine) and [`sweeps`] (the eight
//! executed sweeps built on it).
//!
//! A malformed argument is a usage line on stderr and exit code 2,
//! never a panic.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cell;
pub mod repro;
pub mod sweeps;

use std::io::Write;
use std::path::{Path, PathBuf};
use tpcc_model::{ExperimentContext, Quality};

/// Prints `error` and the usage line to stderr and exits with code 2.
pub fn usage_exit(error: &str, usage: &str) -> ! {
    eprintln!("error: {error}\nusage: {usage}");
    std::process::exit(2)
}

/// `repro_all`'s options; [`Cli::USAGE`] lists them.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Experiments to run, in the order given; empty means all.
    pub names: Vec<String>,
    /// Simulation effort (default `quick`; `paper` matches the paper's
    /// sample counts).
    pub quality: Quality,
    /// Directory for CSV output, if requested.
    pub csv_dir: Option<PathBuf>,
    /// Root seed override.
    pub seed: Option<u64>,
}

impl Cli {
    /// The options, as a usage line.
    pub const USAGE: &'static str =
        "repro_all [name…] [--quality paper|quick|smoke] [--csv <dir>] [--seed <u64>]";

    /// Parses the arguments after the program name.
    ///
    /// # Errors
    /// What is wrong with the first malformed argument.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut cli = Cli {
            names: Vec::new(),
            quality: Quality::Quick,
            csv_dir: None,
            seed: None,
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value = || it.next().ok_or(format!("{arg} needs a value"));
            match arg.as_str() {
                "--quality" => {
                    cli.quality = match value()?.as_str() {
                        "paper" => Quality::Paper,
                        "quick" => Quality::Quick,
                        "smoke" => Quality::Smoke,
                        other => return Err(format!("unknown quality '{other}'")),
                    };
                }
                "--csv" => cli.csv_dir = Some(PathBuf::from(value()?)),
                "--seed" => {
                    let v = value()?;
                    cli.seed = Some(v.parse().map_err(|_| format!("seed '{v}' is not a u64"))?);
                }
                flag if flag.starts_with('-') => return Err(format!("unknown argument '{flag}'")),
                _ => cli.names.push(arg),
            }
        }
        Ok(cli)
    }

    /// Builds the experiment context for these options.
    #[must_use]
    pub fn context(&self) -> ExperimentContext {
        match self.seed {
            Some(s) => ExperimentContext::with_seed(self.quality, s),
            None => ExperimentContext::new(self.quality),
        }
    }
}

/// Arguments read against a usage line such as
/// `"[transactions] [seed] [--check]"`: bracketed positional `u64`s in
/// order (each optional) and bare flags. The line a user is shown is
/// the line that is parsed against, so the two cannot drift apart.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: Vec<(&'static str, u64)>,
    flags: Vec<&'static str>,
}

impl Args {
    /// Reads `args` (after the program and sweep name) against `usage`.
    ///
    /// # Errors
    /// What is wrong with the first malformed argument: not a `u64`,
    /// an unknown flag, or one positional too many.
    pub fn parse<I>(usage: &'static str, args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = String>,
    {
        let specs = usage.split(['[', ']']).filter(|s| !s.trim().is_empty());
        let (flags, positional): (Vec<_>, Vec<_>) = specs.partition(|s| s.starts_with("--"));
        let mut parsed = Args::default();
        let mut names = positional.into_iter();
        for arg in args {
            if arg.starts_with("--") {
                let flag = flags.iter().find(|f| **f == arg);
                parsed
                    .flags
                    .push(flag.ok_or(format!("unknown flag '{arg}'"))?);
            } else {
                let name = names.next().ok_or(format!("unexpected argument '{arg}'"))?;
                let value = arg.parse::<u64>();
                parsed.values.push((
                    name,
                    value.map_err(|_| format!("{name} must be a u64, got '{arg}'"))?,
                ));
            }
        }
        Ok(parsed)
    }

    /// The value given for positional `name`, else `default`.
    #[must_use]
    pub fn get(&self, name: &str, default: u64) -> u64 {
        let given = self.values.iter().find(|(n, _)| *n == name);
        given.map_or(default, |&(_, v)| v)
    }

    /// Whether the bare flag `name` was given.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.flags.contains(&name)
    }

    /// [`Args::parse`] on the process arguments, or [`usage_exit`].
    #[must_use]
    pub fn from_env(tool: &str, usage: &'static str) -> Self {
        Self::parse(usage, std::env::args().skip(1))
            .unwrap_or_else(|e| usage_exit(&e, &format!("{tool} {usage}")))
    }
}

/// Where a sweep's lines go.
pub type Sink = Box<dyn Write + Send>;

/// A writer that copies every line to stdout and to a results file.
struct Tee(std::fs::File);

impl Write for Tee {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        std::io::stdout().write_all(buf)?;
        self.0.write_all(buf)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        std::io::stdout().flush()?;
        self.0.flush()
    }
}

/// Creates `results/<file>` (and `results/`), echoed to stdout.
///
/// # Panics
/// Panics on I/O errors — acceptable in a bench binary.
#[must_use]
pub fn results_file(file: &str) -> Sink {
    std::fs::create_dir_all("results").expect("create results/");
    let path = Path::new("results").join(file);
    Box::new(Tee(
        std::fs::File::create(&path).expect("create the results file")
    ))
}

/// Writes one CSV file (header + rows) into `dir/name.csv`.
///
/// # Panics
/// Panics on I/O errors — acceptable in a reproduction binary.
pub fn write_csv(dir: &Path, name: &str, header: &[&str], rows: &[Vec<String>]) {
    std::fs::create_dir_all(dir).expect("create csv dir");
    let path = dir.join(format!("{name}.csv"));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path).expect("create csv"));
    writeln!(f, "{}", header.join(",")).expect("write header");
    for row in rows {
        writeln!(f, "{}", row.join(",")).expect("write row");
    }
    f.flush().expect("flush csv");
    eprintln!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Splits a command line on spaces.
    fn strings(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn cli_defaults_flags_and_names() {
        let c = Cli::parse_from(strings("")).unwrap();
        assert_eq!(c.quality, Quality::Quick);
        assert!(c.names.is_empty() && c.csv_dir.is_none() && c.seed.is_none());
        let line = "fig8 --quality smoke --csv /tmp/x fig9 --seed 42";
        let c = Cli::parse_from(strings(line)).unwrap();
        assert_eq!(c.names, ["fig8", "fig9"]);
        assert_eq!(c.quality, Quality::Smoke);
        assert_eq!(c.csv_dir.as_deref(), Some(Path::new("/tmp/x")));
        assert_eq!(c.seed, Some(42));
    }

    #[test]
    fn cli_malformed_arguments_are_errors_not_panics() {
        for (args, needle) in [
            ("--frob", "unknown argument '--frob'"),
            ("--quality fast", "unknown quality 'fast'"),
            ("--seed x", "seed 'x' is not a u64"),
            ("--csv", "--csv needs a value"),
        ] {
            let err = Cli::parse_from(strings(args)).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }

    const USAGE: &str = "[transactions] [seed] [--check]";

    #[test]
    fn args_read_positionals_flags_and_defaults() {
        let a = Args::parse(USAGE, strings("500 --check 7")).unwrap();
        assert_eq!(a.get("transactions", 1), 500);
        assert_eq!(a.get("seed", 42), 7);
        assert!(a.flag("--check"));
        let a = Args::parse(USAGE, strings("500")).unwrap();
        assert_eq!(a.get("seed", 42), 42);
        assert!(!a.flag("--check"));
    }

    #[test]
    fn args_malformed_arguments_are_errors_not_panics() {
        for (args, needle) in [
            ("5k", "transactions must be a u64, got '5k'"),
            ("1 2 3", "unexpected argument '3'"),
            ("--frob", "unknown flag '--frob'"),
            ("--check=1", "unknown flag '--check=1'"),
        ] {
            let err = Args::parse(USAGE, strings(args)).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }

    #[test]
    fn csv_round_trip() {
        let dir = std::env::temp_dir().join("tpcc_bench_csv_test");
        write_csv(&dir, "t", &["a", "b"], &[vec!["1".into(), "2".into()]]);
        let text = std::fs::read_to_string(dir.join("t.csv")).expect("read back");
        assert_eq!(text, "a,b\n1,2\n");
    }
}
