//! Minimal argument parsing for the `escalate` CLI (no external parser
//! dependency; see DESIGN.md's dependency policy).

use std::collections::HashMap;

/// A parsed command line: the subcommand, its positional arguments, and
/// `--key value` / `--flag` options.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedArgs {
    /// Subcommand name (first non-option argument).
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    /// Options: `--key value` pairs; a boolean `--flag` maps to `"true"`.
    pub options: HashMap<String, String>,
    /// Arguments after a bare `--`, verbatim.
    pub forwarded: Vec<String>,
    /// Every argument except the subcommand, verbatim and in order — for
    /// commands with a parser of their own.
    pub tokens: Vec<String>,
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
    /// A required positional argument is missing.
    MissingArgument {
        /// Placeholder name (as in the usage text).
        name: &'static str,
        /// What was expected.
        expected: &'static str,
    },
    /// A positional argument has an invalid value.
    BadArgument {
        /// Placeholder name (as in the usage text).
        name: &'static str,
        /// Offending value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// An option that takes a value was given none.
    MissingValue(String),
    /// A boolean flag was given a value (`--flag=value`).
    FlagValue(String),
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
            ArgError::MissingArgument { name, expected } => {
                write!(f, "missing {name}: expected {expected}")
            }
            ArgError::BadArgument {
                name,
                value,
                expected,
            } => write!(f, "{name}: expected {expected}, got {value:?}"),
            ArgError::MissingValue(o) => write!(f, "--{o} needs a value"),
            ArgError::FlagValue(o) => write!(f, "--{o} is a flag and takes no value"),
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
    /// Parses raw arguments (without the program name). `flags(command)`
    /// names the command's boolean flags: those never take a value, and
    /// every other option always takes the next argument as its value, so
    /// `compress --layers MobileNet` reads `MobileNet` as the model.
    /// Options before the command are looked up under the empty command.
    ///
    /// Half-parsed configurations are hard errors, not silent fallbacks:
    /// a valued option without a value, a value on a boolean flag, an
    /// explicit empty value (`--key=`) and a repeated option all reject
    /// the whole line. A one-shot run would merely produce a confusing
    /// result; a daemon started this way would serve it for its whole
    /// lifetime.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::MissingCommand`] for an empty line,
    /// [`ArgError::MissingValue`] for a bare valued option,
    /// [`ArgError::FlagValue`] for `--flag=value`,
    /// [`ArgError::EmptyValue`] for `--key=`, and
    /// [`ArgError::DuplicateOption`] for a repeated option.
    pub fn parse<I, S>(
        args: I,
        flags: fn(&str) -> &'static [&'static str],
    ) -> Result<ParsedArgs, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut out = ParsedArgs::default();
        let mut iter = args.into_iter().map(Into::into);
        while let Some(a) = iter.next() {
            if a == "--" {
                out.forwarded.extend(iter);
                out.tokens.push(a);
                out.tokens.extend(out.forwarded.iter().cloned());
                break;
            }
            let Some(key) = a.strip_prefix("--") else {
                if out.command.is_empty() {
                    out.command = a;
                } else {
                    out.tokens.push(a.clone());
                    out.positional.push(a);
                }
                continue;
            };
            let boolean = flags(&out.command);
            let (k, v, spaced) = if let Some((k, v)) = key.split_once('=') {
                // `--key=value`: the value is inline (and may itself
                // contain `=` or start with `-`).
                if boolean.contains(&k) {
                    return Err(ArgError::FlagValue(k.to_string()));
                }
                if v.is_empty() {
                    return Err(ArgError::EmptyValue(k.to_string()));
                }
                (k.to_string(), v.to_string(), false)
            } else if boolean.contains(&key) {
                (key.to_string(), "true".to_string(), false)
            } else {
                match iter.next() {
                    Some(v) if !v.starts_with("--") => (key.to_string(), v, true),
                    _ => return Err(ArgError::MissingValue(key.to_string())),
                }
            };
            out.tokens.push(a);
            if spaced {
                out.tokens.push(v.clone());
            }
            if out.options.insert(k.clone(), v).is_some() {
                return Err(ArgError::DuplicateOption(k));
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

    /// Whether a boolean flag was passed.
    pub fn flag(&self, key: &str) -> bool {
        self.options.contains_key(key)
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

    /// The boolean flags of the test commands.
    fn flags(_command: &str) -> &'static [&'static str] {
        &["verbose", "fast"]
    }

    #[test]
    fn forwards_everything_after_a_bare_double_dash() {
        let a = ParsedArgs::parse(["report", "fig11", "--", "MobileNet", "--m"], flags).unwrap();
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
        let a =
            ParsedArgs::parse(["simulate", "ResNet18", "--m", "7", "--verbose"], flags).unwrap();
        assert_eq!(a.command, "simulate");
        assert_eq!(a.positional, vec!["ResNet18"]);
        assert_eq!(a.get_or("m", 6usize).unwrap(), 7);
        assert!(a.flag("verbose"));
    }

    #[test]
    fn defaults_apply_when_missing() {
        let a = ParsedArgs::parse(["compress", "VGG16"], flags).unwrap();
        assert_eq!(a.get_or("m", 6usize).unwrap(), 6);
        assert_eq!(a.get_or("seeds", 10u64).unwrap(), 10);
        assert!(!a.flag("verbose"));
    }

    #[test]
    fn empty_line_is_an_error() {
        assert_eq!(
            ParsedArgs::parse(Vec::<String>::new(), flags),
            Err(ArgError::MissingCommand)
        );
    }

    #[test]
    fn bad_values_are_reported() {
        let a = ParsedArgs::parse(["x", "--m", "six"], flags).unwrap();
        let e = a.get_or("m", 6usize).unwrap_err();
        assert!(matches!(e, ArgError::BadValue { .. }));
        assert!(e.to_string().contains("six"));
    }

    #[test]
    fn unknown_options_are_rejected() {
        let a = ParsedArgs::parse(["x", "--bogus", "1"], flags).unwrap();
        assert!(a.ensure_known(&["m", "seeds"]).is_err());
        assert!(a.ensure_known(&["bogus"]).is_ok());
    }

    #[test]
    fn flag_followed_by_flag_keeps_both() {
        let a = ParsedArgs::parse(["x", "--fast", "--m", "5"], flags).unwrap();
        assert!(a.flag("fast"));
        assert_eq!(a.get_or("m", 0usize).unwrap(), 5);
    }

    #[test]
    fn key_equals_value_parses_like_the_spaced_form() {
        let a = ParsedArgs::parse(["simulate", "ResNet18", "--m=7", "--seeds=2"], flags).unwrap();
        assert_eq!(a.get_or("m", 6usize).unwrap(), 7);
        assert_eq!(a.get_or("seeds", 10u64).unwrap(), 2);
        assert_eq!(a.positional, vec!["ResNet18"]);
    }

    #[test]
    fn equals_values_may_contain_dashes_or_equals() {
        // `-5` would be eaten as a value by the spaced form too, but the
        // `=` form is the only unambiguous spelling for values starting
        // with `--`.
        let a = ParsedArgs::parse(["x", "--offset=-5", "--path=a=b"], flags).unwrap();
        assert_eq!(a.get_or("offset", 0i64).unwrap(), -5);
        assert_eq!(a.options.get("path").map(String::as_str), Some("a=b"));
    }

    #[test]
    fn explicit_empty_values_are_hard_errors() {
        // `--empty=` is never a usable value and never a flag — under the
        // old parser it silently produced an option holding "", which a
        // daemon would then serve forever. Reject the whole line.
        let e = ParsedArgs::parse(["x", "--empty="], flags).unwrap_err();
        assert_eq!(e, ArgError::EmptyValue("empty".to_string()));
        assert!(e.to_string().contains("--empty="));
    }

    #[test]
    fn duplicate_options_are_hard_errors() {
        // Last-wins duplicates hide typos ("--m 5 ... --m 7" runs with 7
        // and no warning); both spellings of the option count.
        let e = ParsedArgs::parse(["x", "--m", "5", "--m", "7"], flags).unwrap_err();
        assert_eq!(e, ArgError::DuplicateOption("m".to_string()));
        let e = ParsedArgs::parse(["x", "--m=5", "--m", "7"], flags).unwrap_err();
        assert_eq!(e, ArgError::DuplicateOption("m".to_string()));
        let e = ParsedArgs::parse(["x", "--verbose", "--verbose"], flags).unwrap_err();
        assert_eq!(e, ArgError::DuplicateOption("verbose".to_string()));
    }

    #[test]
    fn equals_form_does_not_eat_the_next_token() {
        let a = ParsedArgs::parse(["x", "--m=7", "next"], flags).unwrap();
        assert_eq!(a.get_or("m", 0usize).unwrap(), 7);
        assert_eq!(a.positional, vec!["next"]);
    }

    #[test]
    fn boolean_flags_never_take_the_next_argument() {
        let a = ParsedArgs::parse(["x", "--verbose", "ResNet18", "--m", "5"], flags).unwrap();
        assert!(a.flag("verbose"));
        assert_eq!(a.positional, vec!["ResNet18"]);
        assert_eq!(
            a.tokens,
            vec!["--verbose", "ResNet18", "--m", "5"],
            "tokens keep every argument but the command, in order"
        );
    }

    #[test]
    fn valued_options_without_a_value_are_errors_naming_the_option() {
        for line in [
            &["x", "--m"][..],
            &["x", "--m", "--verbose"],
            &["x", "--m", "--"],
        ] {
            let e = ParsedArgs::parse(line.iter().copied(), flags).unwrap_err();
            assert_eq!(e, ArgError::MissingValue("m".to_string()), "{line:?}");
            assert!(e.to_string().contains("--m"), "{e}");
        }
    }

    #[test]
    fn boolean_flags_reject_inline_values() {
        let e = ParsedArgs::parse(["x", "--verbose=yes"], flags).unwrap_err();
        assert_eq!(e, ArgError::FlagValue("verbose".to_string()));
    }

    #[test]
    fn flags_are_looked_up_per_command() {
        fn per_command(command: &str) -> &'static [&'static str] {
            match command {
                "report" => &["check"],
                _ => &[],
            }
        }
        let a = ParsedArgs::parse(["report", "--check", "table4"], per_command).unwrap();
        assert!(a.flag("check"));
        assert_eq!(a.positional, vec!["table4"]);
        let a = ParsedArgs::parse(["sweep", "--check", "golden.txt"], per_command).unwrap();
        assert_eq!(
            a.options.get("check").map(String::as_str),
            Some("golden.txt")
        );
        assert!(a.positional.is_empty());
    }
}
