//! Command-line plumbing shared by the `experiments` and `laser-serve`
//! binaries: one rejection type, one value-taking helper, one place that
//! turns a rejected knob into a message naming the flag.

use std::process::ExitCode;
use std::str::FromStr;

/// Why a command line was rejected.
#[derive(Debug, PartialEq)]
pub enum CliError {
    /// Malformed flags (or an explicit `--help`): print usage, exit 2.
    Usage,
    /// A well-formed but invalid request (e.g. an unknown `--only` name):
    /// print the message, then usage, exit 2.
    Invalid(String),
}

impl CliError {
    /// Print the message (if any) and `usage` to stderr; the exit code is 2.
    pub fn report(&self, usage: &str) -> ExitCode {
        if let CliError::Invalid(message) = self {
            eprintln!("{message}");
        }
        eprintln!("{usage}");
        ExitCode::from(2)
    }
}

/// The value of the flag just taken from `args`: the next argument, parsed
/// as `T`.
///
/// # Errors
/// [`CliError::Usage`] when the value is missing or malformed.
pub fn value<'a, T: FromStr>(args: &mut impl Iterator<Item = &'a String>) -> Result<T, CliError> {
    args.next()
        .and_then(|s| s.parse().ok())
        .ok_or(CliError::Usage)
}

/// Attach the flag spelling to a value a
/// [`CampaignConfig`](crate::config::CampaignConfig) setter rejected.
///
/// # Errors
/// [`CliError::Invalid`] naming `flag` when `set` is an error.
pub fn knob(flag: &str, set: Result<(), String>) -> Result<(), CliError> {
    set.map_err(|why| CliError::Invalid(format!("{flag} {why}")))
}
