//! What a host-time number depends on besides the code: recorded in
//! every result file, and checked by `perf compare` before it compares.

use std::process::{Command, Stdio};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::jsonx::{count, obj, text, Value};

/// The `[profile.release]` table of this package's `Cargo.toml` (a unit
/// test keeps the two in step). The repository root's profile does not
/// apply: this package is its own workspace.
pub const PROFILE_RELEASE: [(&str, &str); 5] = [
    ("opt-level", "3"),
    ("debug", "false"),
    ("lto", "false"),
    ("codegen-units", "16"),
    ("panic", "\"unwind\""),
];

/// First line a command prints, or `None` if it cannot run or fails.
fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).lines().next().unwrap_or("").to_string())
}

/// `YYYY-MM-DDThh:mm:ssZ` for seconds since the Unix epoch (civil date
/// from day count, Gregorian calendar).
pub fn iso_utc(unix_s: u64) -> String {
    let (days, rem) = (unix_s / 86_400, unix_s % 86_400);
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

/// The environment of this run, as the `env` object of a result file.
pub fn capture() -> Value {
    let unknown = || "unknown".to_string();
    let commit = first_line("git", &["log", "-1", "--format=%H %s"]).unwrap_or_else(unknown);
    let (hash, subject) = commit.split_once(' ').unwrap_or((&commit, ""));
    let now = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
    let nproc = first_line("nproc", &[]).and_then(|s| s.trim().parse::<u64>().ok()).unwrap_or(0);
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let profile =
        PROFILE_RELEASE.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" ");
    obj([
        ("commit", text(hash)),
        ("subject", text(subject)),
        ("date", text(iso_utc(now))),
        ("nproc", count(nproc)),
        ("available_parallelism", count(parallelism)),
        ("rustc", text(first_line("rustc", &["-V"]).unwrap_or_else(unknown))),
        ("profile_release", text(profile)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dates_are_civil() {
        assert_eq!(iso_utc(0), "1970-01-01T00:00:00Z");
        assert_eq!(iso_utc(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(iso_utc(1_790_812_799), "2026-09-30T23:59:59Z");
    }

    #[test]
    fn recorded_profile_is_the_manifest_profile() {
        let manifest = include_str!("../Cargo.toml");
        let table = manifest.split("[profile.release]").nth(1).expect("a release profile");
        for (key, value) in PROFILE_RELEASE {
            assert!(table.contains(&format!("{key} = {value}")), "{key} = {value}");
        }
        assert_eq!(table.lines().filter(|l| l.contains(" = ")).count(), PROFILE_RELEASE.len());
    }

    #[test]
    fn capture_has_every_field() {
        let env = capture();
        for key in [
            "commit",
            "subject",
            "date",
            "nproc",
            "available_parallelism",
            "rustc",
            "profile_release",
        ] {
            assert!(env.get(key).is_some(), "{key}");
        }
    }
}
