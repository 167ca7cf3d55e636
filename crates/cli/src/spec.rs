//! Parsing of scheme/distance specifications and flag maps.

use rustc_hash::FxHashMap;

use comsig_core::distance::{BatchDistance, Cosine, Dice, Jaccard, Overlap, SDice, SHel};
use comsig_core::pipeline::DeltaScheme;
use comsig_core::scheme::{PushRwr, Rwr, Scaling, SignatureScheme, TopTalkers, UnexpectedTalkers};

use crate::CliError;

/// A parsed concrete scheme, before boxing behind a trait object —
/// every variant implements both [`SignatureScheme`] and [`DeltaScheme`].
enum ConcreteScheme {
    Tt(TopTalkers),
    Ut(UnexpectedTalkers),
    Rwr(Rwr),
    Push(PushRwr),
}

impl ConcreteScheme {
    fn into_scheme(self) -> Box<dyn SignatureScheme> {
        match self {
            ConcreteScheme::Tt(s) => Box::new(s),
            ConcreteScheme::Ut(s) => Box::new(s),
            ConcreteScheme::Rwr(s) => Box::new(s),
            ConcreteScheme::Push(s) => Box::new(s),
        }
    }

    fn into_delta_scheme(self) -> Box<dyn DeltaScheme> {
        match self {
            ConcreteScheme::Tt(s) => Box::new(s),
            ConcreteScheme::Ut(s) => Box::new(s),
            ConcreteScheme::Rwr(s) => Box::new(s),
            ConcreteScheme::Push(s) => Box::new(s),
        }
    }
}

fn parse_concrete(spec: &str) -> Result<ConcreteScheme, CliError> {
    let (head, rest) = spec.split_once(':').unwrap_or((spec, ""));
    match head {
        "tt" if rest.is_empty() => Ok(ConcreteScheme::Tt(TopTalkers)),
        "tt" => Err(CliError::Usage(format!(
            "`tt` takes no arguments, got `{rest}`"
        ))),
        "ut" => match rest {
            "" | "ratio" => Ok(ConcreteScheme::Ut(UnexpectedTalkers::new())),
            "tfidf" => Ok(ConcreteScheme::Ut(UnexpectedTalkers::with_scaling(
                Scaling::TfIdf,
            ))),
            "log" => Ok(ConcreteScheme::Ut(UnexpectedTalkers::with_scaling(
                Scaling::LogNovelty,
            ))),
            other => Err(CliError::Usage(format!(
                "unknown UT scaling `{other}` (ratio|tfidf|log)"
            ))),
        },
        "rwr" => {
            let opts = parse_kv(rest, &["c", "h"])?;
            let c = get_f64(&opts, "c")?.unwrap_or(0.1);
            let mut scheme = match opts.get("h") {
                None => Rwr::full(c),
                Some(h) => match h.parse::<u32>() {
                    Ok(h) if h >= 1 => Rwr::truncated(c, h),
                    _ => {
                        return Err(CliError::Usage(format!(
                            "`h` must be an integer >= 1, got `{h}`"
                        )));
                    }
                },
            };
            if opts.contains_key("undirected") {
                scheme = scheme.undirected();
            }
            Ok(ConcreteScheme::Rwr(scheme))
        }
        "push" => {
            let opts = parse_kv(rest, &["c", "eps"])?;
            let c = get_f64(&opts, "c")?.unwrap_or(0.1);
            let eps = get_f64(&opts, "eps")?.unwrap_or(1e-4);
            let mut scheme = PushRwr::new(c, eps);
            if opts.contains_key("undirected") {
                scheme = scheme.undirected();
            }
            Ok(ConcreteScheme::Push(scheme))
        }
        other => Err(CliError::Usage(format!(
            "unknown scheme `{other}` (tt|ut|rwr|push)"
        ))),
    }
}

/// Parses a scheme specification:
///
/// * `tt`
/// * `ut`, `ut:tfidf`, `ut:log`
/// * `rwr:h=3,c=0.1[,undirected]` (omit `h` for the steady state)
/// * `push:c=0.1,eps=1e-4[,undirected]`
pub fn parse_scheme(spec: &str) -> Result<Box<dyn SignatureScheme>, CliError> {
    parse_concrete(spec).map(ConcreteScheme::into_scheme)
}

/// Parses the same scheme grammar as [`parse_scheme`], but as a
/// [`DeltaScheme`] for the streaming pipeline (`comsig stream`). Every
/// scheme is accepted; RWR^∞ and PushRWR advance by full recompute.
pub fn parse_delta_scheme(spec: &str) -> Result<Box<dyn DeltaScheme>, CliError> {
    parse_concrete(spec).map(ConcreteScheme::into_delta_scheme)
}

/// Parses a distance name: `jac|dice|sdice|shel|cos|ovl`.
pub fn parse_distance(name: &str) -> Result<Box<dyn BatchDistance>, CliError> {
    match name {
        "jac" | "jaccard" => Ok(Box::new(Jaccard)),
        "dice" => Ok(Box::new(Dice)),
        "sdice" => Ok(Box::new(SDice)),
        "shel" => Ok(Box::new(SHel)),
        "cos" | "cosine" => Ok(Box::new(Cosine)),
        "ovl" | "overlap" => Ok(Box::new(Overlap)),
        other => Err(CliError::Usage(format!(
            "unknown distance `{other}` (jac|dice|sdice|shel|cos|ovl)"
        ))),
    }
}

/// Splits `key=value,...,undirected` options. `keys` are the valued
/// options the scheme accepts; `undirected` is the only bare flag. Any
/// other key, a value on `undirected`, or a missing value is a usage
/// error — a typo must never silently fall back to a default.
fn parse_kv(rest: &str, keys: &[&str]) -> Result<FxHashMap<String, String>, CliError> {
    let mut map = FxHashMap::default();
    if rest.is_empty() {
        return Ok(map);
    }
    for part in rest.split(',') {
        let (key, value) = match part.split_once('=') {
            Some((k, v)) => (k.trim(), Some(v.trim())),
            None => (part.trim(), None),
        };
        match value {
            None if key == "undirected" => {}
            Some(_) if key == "undirected" => {
                return Err(CliError::Usage(
                    "`undirected` is a bare flag and takes no value".into(),
                ));
            }
            Some(_) if keys.contains(&key) => {}
            None if keys.contains(&key) => {
                return Err(CliError::Usage(format!("`{key}` needs a value")));
            }
            _ => {
                return Err(CliError::Usage(format!(
                    "unknown scheme option `{key}` (expected {}|undirected)",
                    keys.join("|")
                )));
            }
        }
        map.insert(key.to_owned(), value.unwrap_or_default().to_owned());
    }
    Ok(map)
}

fn get_f64(opts: &FxHashMap<String, String>, key: &str) -> Result<Option<f64>, CliError> {
    match opts.get(key) {
        None => Ok(None),
        Some(v) => v
            .parse::<f64>()
            .map(Some)
            .map_err(|_| CliError::Usage(format!("`{key}` must be a number, got `{v}`"))),
    }
}

/// A parsed command line: positional arguments plus `--flag [value]`
/// options (a flag immediately followed by another flag is boolean).
#[derive(Debug, Default)]
pub struct Parsed {
    /// Positional arguments in order.
    pub positional: Vec<String>,
    /// Flag map: `--k 10` becomes `("k", "10")`; bare flags map to `""`.
    pub flags: FxHashMap<String, String>,
}

impl Parsed {
    /// Splits an argument vector into positionals and flags.
    pub fn from_args(args: &[String]) -> Parsed {
        let mut parsed = Parsed::default();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            if let Some(name) = arg.strip_prefix("--") {
                let value = args
                    .get(i + 1)
                    .filter(|v| !v.starts_with("--"))
                    .cloned()
                    .unwrap_or_default();
                if !value.is_empty() {
                    i += 1;
                }
                parsed.flags.insert(name.to_owned(), value);
            } else {
                parsed.positional.push(arg.clone());
            }
            i += 1;
        }
        parsed
    }

    /// A flag value, if present and non-empty.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .get(name)
            .map(String::as_str)
            .filter(|s| !s.is_empty())
    }

    /// Whether a (possibly bare) flag is present.
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// A required flag.
    pub fn require(&self, name: &str) -> Result<&str, CliError> {
        self.get(name)
            .ok_or_else(|| CliError::Usage(format!("missing --{name}")))
    }

    /// A flag parsed as a number, with a default.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse::<T>()
                .map_err(|_| CliError::Usage(format!("--{name} must be a number, got `{v}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_specs_parse() {
        assert_eq!(parse_scheme("tt").unwrap().name(), "TT");
        assert_eq!(parse_scheme("ut").unwrap().name(), "UT");
        assert_eq!(parse_scheme("ut:tfidf").unwrap().name(), "UT-tfidf");
        assert_eq!(parse_scheme("rwr:h=3,c=0.1").unwrap().name(), "RWR^3_0.1");
        assert_eq!(
            parse_scheme("rwr:h=5,c=0.2,undirected").unwrap().name(),
            "RWR^5_0.2"
        );
        assert_eq!(parse_scheme("rwr:c=0.3").unwrap().name(), "RWR_0.3");
        assert!(parse_scheme("push:eps=1e-5")
            .unwrap()
            .name()
            .starts_with("PushRWR"));
    }

    #[test]
    fn delta_scheme_specs_parse() {
        for spec in [
            "tt",
            "ut:log",
            "rwr:h=3,c=0.1,undirected",
            "rwr:c=0.2",
            "push",
        ] {
            assert!(parse_delta_scheme(spec).is_ok(), "{spec}");
        }
        assert_eq!(parse_delta_scheme("tt").unwrap().name(), "TT");
        assert!(parse_delta_scheme("bogus").is_err());
    }

    #[test]
    fn bad_specs_rejected() {
        for spec in [
            "bogus",
            "ut:wat",
            "rwr:h=abc",
            "rwr:h=0",
            "rwr:h=2.5",
            "rwr:h",
            "rwr:h=3,undirectd",
            "rwr:h=3,undirected=no",
            "rwr:h=3,undirected=",
            "push:c=0.1,epsilon=1e-5",
            "tt:x",
        ] {
            assert!(
                matches!(parse_scheme(spec), Err(CliError::Usage(_))),
                "{spec}"
            );
            assert!(parse_delta_scheme(spec).is_err(), "{spec}");
        }
        assert!(parse_distance("nope").is_err());
        // The sketch tier approximates ratio-UT only: the other scalings
        // must not silently run as ratio-UT.
        for spec in ["ut:tfidf", "ut:log", "tt:x"] {
            assert_eq!(
                comsig_sketch::tier::SketchScheme::parse(spec),
                None,
                "{spec}"
            );
        }
    }

    #[test]
    fn distance_names_parse() {
        for name in ["jac", "dice", "sdice", "shel", "cos", "ovl"] {
            assert!(parse_distance(name).is_ok(), "{name}");
        }
        assert_eq!(parse_distance("jaccard").unwrap().name(), "Jac");
    }

    #[test]
    fn arg_splitting() {
        let args: Vec<String> = ["gen", "flow", "--locals", "50", "--quiet", "--out", "x.txt"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let p = Parsed::from_args(&args);
        assert_eq!(p.positional, vec!["gen", "flow"]);
        assert_eq!(p.get("locals"), Some("50"));
        assert_eq!(p.get("out"), Some("x.txt"));
        assert!(p.has("quiet"));
        assert_eq!(p.get("quiet"), None); // bare flag has no value
        assert_eq!(p.num::<usize>("locals", 1).unwrap(), 50);
        assert_eq!(p.num::<usize>("missing", 7).unwrap(), 7);
        assert!(p.require("nope").is_err());
        assert!(p.num::<usize>("out", 1).is_err());
    }
}
