//! The tables check themselves, and the usage texts against the tables.

use super::*;

const COMMANDS: [(&str, &Command); 8] = [
    ("", &EXPERIMENT),
    ("audit", &AUDIT),
    ("trace", &TRACE),
    ("profile", &PROFILE),
    ("serve", &SERVE),
    ("soak", &SOAK),
    ("incident", &INCIDENT),
    ("compare", &COMPARE),
];

fn knows(cmd: &Command, name: &str) -> bool {
    cmd.flags.iter().any(|f| f.name == name)
}

/// The `--flag` tokens of a piece of usage text.
fn flag_tokens(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_lowercase() || c == '-'))
        .filter(|t| t.starts_with("--") && t.len() > 2)
}

#[test]
fn flag_names_are_unique_per_subcommand() {
    for (sub, cmd) in COMMANDS {
        for (i, f) in cmd.flags.iter().enumerate() {
            assert!(f.name.starts_with("--"), "repro {sub}: {}", f.name);
            let earlier = &cmd.flags[..i];
            assert!(!earlier.iter().any(|g| g.name == f.name), "repro {sub}: {} twice", f.name);
        }
    }
}

#[test]
fn rules_name_only_flags_of_their_table() {
    for (sub, cmd) in COMMANDS {
        let nothing_given = Parsed { cmd, given: Vec::new(), positionals: Vec::new() };
        for rule in cmd.rules {
            let (named, msg) = match *rule {
                Rule::Conflicts { flag, with, msg } => ([&[flag], with].concat(), msg),
                Rule::OnlyWhen { flags, when, msg } => {
                    // A name the predicate looks up and the table lacks
                    // trips the debug assertion in `Parsed::text`.
                    when(&nothing_given);
                    (flags.to_vec(), msg)
                }
            };
            for name in named {
                assert!(knows(cmd, name), "repro {sub}: rule {msg:?} names unknown {name}");
                assert!(msg.contains(name), "repro {sub}: rule {msg:?} does not mention {name}");
            }
        }
    }
}

#[test]
fn a_value_flag_given_last_reports_what_it_needs() {
    for (sub, cmd) in COMMANDS {
        for f in cmd.flags.iter().filter(|f| !matches!(f.kind, Kind::Switch)) {
            assert!(!f.needs.is_empty(), "repro {sub}: {} has no `needs`", f.name);
            match walk(cmd, &[f.name.to_string()]) {
                Err(Stop::Usage(msg)) => assert_eq!(msg, format!("{} needs {}", f.name, f.needs)),
                _ => panic!("repro {sub}: a bare {} must be a usage error", f.name),
            }
        }
    }
}

#[test]
fn values_are_checked_against_their_kind_as_they_are_met() {
    let argv = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    for (cmd, v, msg) in [
        (&TRACE, &["--levels", "4294967296"][..], "--levels needs an unsigned integer"),
        (&SERVE, &["--load", "inf"][..], "--load needs a positive number"),
        (&SERVE, &["--clients", "0", "--bogus"][..], "--clients needs a positive integer"),
        (&SERVE, &["--bogus", "--clients", "0"][..], "unexpected argument \"--bogus\""),
        (&AUDIT, &["stray"][..], "unexpected argument \"stray\""),
    ] {
        match walk(cmd, &argv(v)) {
            Err(Stop::Usage(first)) => assert_eq!(first, msg, "{v:?}"),
            _ => panic!("{v:?} must be a usage error"),
        }
    }
    let args = argv(&["--seed", "3", "--quick", "--seed", "9"]);
    let p = walk(&AUDIT, &args).ok().expect("valid arguments");
    assert!(p.has("--quick") && !p.has("--trace-out"));
    assert_eq!(p.get::<u64>("--seed"), Some(9), "a repeated flag reads as its last value");
}

#[test]
fn usage_texts_and_tables_name_the_same_flags() {
    for (sub, cmd) in COMMANDS {
        for f in cmd.flags {
            assert!(
                flag_tokens(cmd.usage).any(|t| t == f.name),
                "repro {sub}: {} is missing from the usage text",
                f.name
            );
        }
        // The experiment synopsis also lists the subcommands' flags.
        if sub.is_empty() {
            continue;
        }
        // Inside a backquoted `repro <other> …` span a flag is <other>'s.
        for (i, span) in cmd.usage.split('`').enumerate() {
            let quoted = span.strip_prefix("repro ").filter(|_| i % 2 == 1);
            let other = quoted.and_then(|rest| rest.split_whitespace().next());
            let owner = COMMANDS.iter().find(|(s, _)| Some(*s) == other).map_or(cmd, |(_, c)| c);
            for token in flag_tokens(span) {
                assert!(knows(owner, token), "repro {sub}: usage text names unknown {token}");
            }
        }
    }
}
