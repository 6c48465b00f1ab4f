//! Minimal argument parsing for the `escalate` CLI (no external parser
//! dependency; see DESIGN.md's dependency policy).

use std::collections::HashMap;

/// A parsed command line: the subcommand, its positional arguments, and
/// `--key value` / `--flag` options.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedArgs {
    /// Subcommand name (first non-flag argument).
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    /// Options: `--key value` pairs; bare `--flag` maps to `"true"`.
    pub options: HashMap<String, String>,
    /// Arguments after a bare `--`, verbatim.
    pub forwarded: Vec<String>,
}

/// Parsing errors with user-facing messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand given.
    MissingCommand,
    /// An option value failed to parse.
    BadValue {
        /// Option name.
        option: String,
        /// Offending value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// An unknown option was passed.
    UnknownOption(String),
    /// An option was given an explicit empty value (`--key=`).
    EmptyValue(String),
    /// An option appeared more than once.
    DuplicateOption(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "no command given (try `escalate help`)"),
            ArgError::BadValue {
                option,
                value,
                expected,
            } => {
                write!(f, "--{option}: expected {expected}, got {value:?}")
            }
            ArgError::UnknownOption(o) => write!(f, "unknown option --{o}"),
            ArgError::EmptyValue(o) => {
                write!(
                    f,
                    "--{o}= has an empty value; pass a value or drop the option"
                )
            }
            ArgError::DuplicateOption(o) => {
                write!(f, "--{o} given more than once; keep exactly one")
            }
        }
    }
}

impl std::error::Error for ArgError {}

impl ParsedArgs {
    /// Parses raw arguments (without the program name).
    ///
    /// Half-parsed configurations are hard errors, not silent fallbacks:
    /// an explicit empty value (`--key=`) and a repeated option both
    /// reject the whole line. A one-shot run would merely produce a
    /// confusing result; a daemon started this way would serve it for its
    /// whole lifetime.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::MissingCommand`] for an empty line,
    /// [`ArgError::EmptyValue`] for `--key=`, and
    /// [`ArgError::DuplicateOption`] for a repeated option.
    pub fn parse<I, S>(args: I) -> Result<ParsedArgs, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut out = ParsedArgs::default();
        let mut iter = args.into_iter().map(Into::into).peekable();
        while let Some(a) = iter.next() {
            if a == "--" {
                out.forwarded.extend(iter);
                break;
            }
            if let Some(key) = a.strip_prefix("--") {
                let (k, v) = if let Some((k, v)) = key.split_once('=') {
                    // `--key=value`: the value is inline (and may itself
                    // contain `=` or start with `-`).
                    if v.is_empty() {
                        return Err(ArgError::EmptyValue(k.to_string()));
                    }
                    (k.to_string(), v.to_string())
                } else {
                    let value = match iter.peek() {
                        Some(v) if !v.starts_with("--") => {
                            iter.next().expect("peeked value exists")
                        }
                        _ => "true".to_string(),
                    };
                    (key.to_string(), value)
                };
                if out.options.insert(k.clone(), v).is_some() {
                    return Err(ArgError::DuplicateOption(k));
                }
            } else if out.command.is_empty() {
                out.command = a;
            } else {
                out.positional.push(a);
            }
        }
        if out.command.is_empty() {
            return Err(ArgError::MissingCommand);
        }
        Ok(out)
    }

    /// Reads an option parsed as `T`, with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] when the value does not parse.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                option: key.to_string(),
                value: v.clone(),
                expected: std::any::type_name::<T>(),
            }),
        }
    }

    /// Whether a bare flag was passed.
    pub fn flag(&self, key: &str) -> bool {
        self.options.get(key).is_some_and(|v| v == "true")
    }

    /// Rejects options outside the allowed set, and forwarded arguments
    /// unless `"--"` is allowed.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::UnknownOption`] for the first unknown option.
    pub fn ensure_known(&self, allowed: &[&str]) -> Result<(), ArgError> {
        if !self.forwarded.is_empty() && !allowed.contains(&"--") {
            return Err(ArgError::UnknownOption(String::new()));
        }
        for k in self.options.keys() {
            if !allowed.contains(&k.as_str()) {
                return Err(ArgError::UnknownOption(k.clone()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forwards_everything_after_a_bare_double_dash() {
        let a = ParsedArgs::parse(["report", "fig11", "--", "MobileNet", "--m"]).unwrap();
        assert_eq!(a.positional, vec!["fig11"]);
        assert_eq!(a.forwarded, vec!["MobileNet", "--m"]);
        assert!(a.options.is_empty());
        assert!(a.ensure_known(&["--"]).is_ok());
        assert_eq!(
            a.ensure_known(&[]),
            Err(ArgError::UnknownOption(String::new()))
        );
    }

    #[test]
    fn parses_command_positionals_and_options() {
        let a = ParsedArgs::parse(["simulate", "ResNet18", "--m", "7", "--verbose"]).unwrap();
        assert_eq!(a.command, "simulate");
        assert_eq!(a.positional, vec!["ResNet18"]);
        assert_eq!(a.get_or("m", 6usize).unwrap(), 7);
        assert!(a.flag("verbose"));
    }

    #[test]
    fn defaults_apply_when_missing() {
        let a = ParsedArgs::parse(["compress", "VGG16"]).unwrap();
        assert_eq!(a.get_or("m", 6usize).unwrap(), 6);
        assert_eq!(a.get_or("seeds", 10u64).unwrap(), 10);
        assert!(!a.flag("verbose"));
    }

    #[test]
    fn empty_line_is_an_error() {
        assert_eq!(
            ParsedArgs::parse(Vec::<String>::new()),
            Err(ArgError::MissingCommand)
        );
    }

    #[test]
    fn bad_values_are_reported() {
        let a = ParsedArgs::parse(["x", "--m", "six"]).unwrap();
        let e = a.get_or("m", 6usize).unwrap_err();
        assert!(matches!(e, ArgError::BadValue { .. }));
        assert!(e.to_string().contains("six"));
    }

    #[test]
    fn unknown_options_are_rejected() {
        let a = ParsedArgs::parse(["x", "--bogus", "1"]).unwrap();
        assert!(a.ensure_known(&["m", "seeds"]).is_err());
        assert!(a.ensure_known(&["bogus"]).is_ok());
    }

    #[test]
    fn flag_followed_by_flag_keeps_both() {
        let a = ParsedArgs::parse(["x", "--fast", "--m", "5"]).unwrap();
        assert!(a.flag("fast"));
        assert_eq!(a.get_or("m", 0usize).unwrap(), 5);
    }

    #[test]
    fn key_equals_value_parses_like_the_spaced_form() {
        let a = ParsedArgs::parse(["simulate", "ResNet18", "--m=7", "--seeds=2"]).unwrap();
        assert_eq!(a.get_or("m", 6usize).unwrap(), 7);
        assert_eq!(a.get_or("seeds", 10u64).unwrap(), 2);
        assert_eq!(a.positional, vec!["ResNet18"]);
    }

    #[test]
    fn equals_values_may_contain_dashes_or_equals() {
        // `-5` would be eaten as a value by the spaced form too, but the
        // `=` form is the only unambiguous spelling for values starting
        // with `--`.
        let a = ParsedArgs::parse(["x", "--offset=-5", "--path=a=b"]).unwrap();
        assert_eq!(a.get_or("offset", 0i64).unwrap(), -5);
        assert_eq!(a.options.get("path").map(String::as_str), Some("a=b"));
    }

    #[test]
    fn explicit_empty_values_are_hard_errors() {
        // `--empty=` is never a usable value and never a flag — under the
        // old parser it silently produced an option holding "", which a
        // daemon would then serve forever. Reject the whole line.
        let e = ParsedArgs::parse(["x", "--empty="]).unwrap_err();
        assert_eq!(e, ArgError::EmptyValue("empty".to_string()));
        assert!(e.to_string().contains("--empty="));
    }

    #[test]
    fn duplicate_options_are_hard_errors() {
        // Last-wins duplicates hide typos ("--m 5 ... --m 7" runs with 7
        // and no warning); both spellings of the option count.
        let e = ParsedArgs::parse(["x", "--m", "5", "--m", "7"]).unwrap_err();
        assert_eq!(e, ArgError::DuplicateOption("m".to_string()));
        let e = ParsedArgs::parse(["x", "--m=5", "--m", "7"]).unwrap_err();
        assert_eq!(e, ArgError::DuplicateOption("m".to_string()));
        let e = ParsedArgs::parse(["x", "--verbose", "--verbose"]).unwrap_err();
        assert_eq!(e, ArgError::DuplicateOption("verbose".to_string()));
    }

    #[test]
    fn equals_form_does_not_eat_the_next_token() {
        let a = ParsedArgs::parse(["x", "--m=7", "next"]).unwrap();
        assert_eq!(a.get_or("m", 0usize).unwrap(), 7);
        assert_eq!(a.positional, vec!["next"]);
    }
}
