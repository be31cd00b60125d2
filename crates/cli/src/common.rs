//! Flag parsing and option helpers shared by every subcommand.
//!
//! Factored out of the dispatch module so surfaces that grow their own
//! command file (`seq`) parse `--stats[=json]`, `--trace`, `--support`,
//! item lists, and byte sizes exactly like the itemset commands do —
//! one parser, one error vocabulary.

/// Parsed `--flag value` / `--flag=value` / bare `--flag` argv.
pub(crate) struct Flags {
    pairs: Vec<(String, String)>,
    bare: Vec<String>,
}

impl Flags {
    pub(crate) fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    pub(crate) fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    pub(crate) fn has(&self, key: &str) -> bool {
        self.bare.iter().any(|b| b == key) || self.get(key).is_some()
    }

    /// A flag given that is not among the space-separated `known`, if any.
    pub(crate) fn unknown(&self, known: &str) -> Option<&str> {
        self.pairs
            .iter()
            .map(|(k, _)| k)
            .chain(&self.bare)
            .map(String::as_str)
            .find(|flag| !known.split_whitespace().any(|k| k == *flag))
    }

    pub(crate) fn parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse '{v}'")),
        }
    }
}

pub(crate) fn parse_flags(rest: &[String]) -> Result<Flags, String> {
    let mut pairs = Vec::new();
    let mut bare = Vec::new();
    let mut it = rest.iter().peekable();
    while let Some(tok) = it.next() {
        let Some(stripped) = tok.strip_prefix("--") else {
            return Err(format!("unexpected argument '{tok}' (flags start with --)"));
        };
        if let Some((k, v)) = stripped.split_once('=') {
            pairs.push((k.to_string(), v.to_string()));
        } else if let Some(next) = it.peek() {
            if next.starts_with("--") {
                bare.push(stripped.to_string());
            } else {
                pairs.push((stripped.to_string(), it.next().unwrap().clone()));
            }
        } else {
            bare.push(stripped.to_string());
        }
    }
    Ok(Flags { pairs, bare })
}

/// What `--stats[=json]` asked for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum StatsMode {
    /// No stats report.
    Off,
    /// Append the human-readable report.
    Human,
    /// Emit only the JSON document.
    Json,
}

pub(crate) fn stats_mode(flags: &Flags) -> Result<StatsMode, String> {
    match flags.get("stats") {
        Some("json") => Ok(StatsMode::Json),
        Some(other) => Err(format!(
            "--stats: expected '--stats' or '--stats=json', got '{other}'"
        )),
        None if flags.has("stats") => Ok(StatsMode::Human),
        None => Ok(StatsMode::Off),
    }
}

/// Parse the minimum-support percentage. `--support` is the canonical
/// spelling; `seq` documentation uses `--minsup` and both are accepted
/// everywhere.
pub(crate) fn support_of(flags: &Flags) -> Result<mining_types::MinSupport, String> {
    let raw = match flags.get("support").or_else(|| flags.get("minsup")) {
        Some(raw) => raw,
        None => return Err("missing required flag --support".to_string()),
    };
    let pct: f64 = raw
        .trim_end_matches('%')
        .parse()
        .map_err(|_| "--support: expected a percentage".to_string())?;
    if !(0.0..=100.0).contains(&pct) {
        return Err("--support must be in [0, 100]".to_string());
    }
    Ok(mining_types::MinSupport::from_percent(pct))
}

/// Parse `--confidence FRAC` (`default` when absent) and check it is in
/// `[0, 1]`. Rule generation panics outside that range, so every command
/// that generates rules runs this first.
pub(crate) fn confidence_of(flags: &Flags, default: f64) -> Result<f64, String> {
    let confidence: f64 = flags.parse("confidence", default)?;
    if !(0.0..=1.0).contains(&confidence) {
        return Err("--confidence must be in [0, 1]".to_string());
    }
    Ok(confidence)
}

/// Parse `--serve-secs S`, the fixed window a server command serves for;
/// `None` serves until the process is killed.
pub(crate) fn serve_secs(flags: &Flags) -> Result<Option<f64>, String> {
    let Some(raw) = flags.get("serve-secs") else {
        return Ok(None);
    };
    match raw.parse::<f64>() {
        Ok(secs) if secs >= 0.0 && secs.is_finite() => Ok(Some(secs)),
        Ok(_) => Err("--serve-secs must be a finite number >= 0".to_string()),
        Err(_) => Err(format!("--serve-secs: cannot parse '{raw}'")),
    }
}

/// Block for the [`serve_secs`] window and return its length; without a
/// window, never return.
pub(crate) fn wait_window(secs: Option<f64>) -> f64 {
    match secs {
        Some(secs) => {
            std::thread::sleep(std::time::Duration::from_secs_f64(secs));
            secs
        }
        None => loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        },
    }
}

/// Publish a server's bound port to `--port-file PATH`, when given, so
/// scripts that bind port 0 can find it.
pub(crate) fn write_port_file(flags: &Flags, port: u16) -> Result<(), String> {
    match flags.get("port-file") {
        Some(path) => {
            std::fs::write(path, format!("{port}\n")).map_err(|e| format!("write {path}: {e}"))
        }
        None => Ok(()),
    }
}

/// Arm the process-wide tracer for a `--trace PATH` run. Single-process
/// commands have no coordinator to mint a run id, so one is derived
/// from the wall clock and pid.
pub(crate) fn arm_tracing(rank: u32) {
    let seed = std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let run_id = (seed ^ u64::from(std::process::id()) << 32).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    eclat_obs::trace::set_identity(run_id.max(1), rank);
    eclat_obs::trace::set_enabled(true);
}

/// Drain the tracer into `path`, the `--trace PATH` of a single-process
/// command, and return the report line naming it.
pub(crate) fn write_trace(path: &str) -> Result<String, String> {
    let doc = eclat_obs::trace::render_jsonl();
    std::fs::write(path, &doc).map_err(|e| format!("write {path}: {e}"))?;
    // One meta line, the rest events/dropped records.
    Ok(format!(
        "trace: {} records -> {path}\n",
        doc.lines().count().saturating_sub(1)
    ))
}

/// Parse a comma-separated item list ("3,17,42") into an [`Itemset`].
///
/// [`Itemset`]: mining_types::Itemset
pub(crate) fn parse_items(flag: &str, raw: &str) -> Result<mining_types::Itemset, String> {
    let mut items = Vec::new();
    for tok in raw.split(',').filter(|t| !t.trim().is_empty()) {
        let item: u32 = tok
            .trim()
            .parse()
            .map_err(|_| format!("--{flag}: '{tok}' is not an item id"))?;
        items.push(item);
    }
    Ok(mining_types::Itemset::of(&items))
}

/// Parse a byte count with an optional `k`/`m`/`g` suffix (powers of
/// 1024, case-insensitive): `"65536"`, `"64k"`, `"2m"`, `"1g"`.
pub(crate) fn parse_mem_budget(raw: &str) -> Result<u64, String> {
    let s = raw.trim();
    let (digits, shift) = match s.chars().last().map(|c| c.to_ascii_lowercase()) {
        Some('k') => (&s[..s.len() - 1], 10),
        Some('m') => (&s[..s.len() - 1], 20),
        Some('g') => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    let n: u64 = digits
        .trim()
        .parse()
        .map_err(|_| format!("--mem-budget: cannot parse '{raw}' (want BYTES[k|m|g])"))?;
    n.checked_shl(shift)
        .filter(|v| v >> shift == n)
        .ok_or_else(|| format!("--mem-budget: '{raw}' overflows"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_parser_variants() {
        let f = parse_flags(&argv(&["--a=1", "--b", "2", "--bare"])).unwrap();
        assert_eq!(f.get("a"), Some("1"));
        assert_eq!(f.get("b"), Some("2"));
        assert!(f.has("bare"));
        assert!(!f.has("missing"));
        assert!(parse_flags(&argv(&["loose"])).is_err());
    }

    #[test]
    fn mem_budget_parsing() {
        assert_eq!(parse_mem_budget("65536").unwrap(), 65536);
        assert_eq!(parse_mem_budget("64k").unwrap(), 64 << 10);
        assert_eq!(parse_mem_budget("2M").unwrap(), 2 << 20);
        assert_eq!(parse_mem_budget("1g").unwrap(), 1 << 30);
        assert_eq!(parse_mem_budget("0").unwrap(), 0);
        assert!(parse_mem_budget("lots").unwrap_err().contains("mem-budget"));
        assert!(parse_mem_budget("").is_err());
        assert!(parse_mem_budget("99999999999g").is_err(), "overflow");
    }

    #[test]
    fn minsup_is_an_alias_for_support() {
        let f = parse_flags(&argv(&["--minsup", "25"])).unwrap();
        let s = support_of(&f).unwrap();
        assert_eq!(s, mining_types::MinSupport::from_percent(25.0));
        let f = parse_flags(&argv(&["--support", "25%"])).unwrap();
        assert_eq!(support_of(&f).unwrap(), s);
        let f = parse_flags(&argv(&[])).unwrap();
        assert!(support_of(&f).unwrap_err().contains("--support"));
        let f = parse_flags(&argv(&["--minsup", "200"])).unwrap();
        assert!(support_of(&f).unwrap_err().contains("[0, 100]"));
    }

    #[test]
    fn confidence_and_serve_window_are_range_checked() {
        let flags = |toks: &[&str]| parse_flags(&argv(toks)).unwrap();
        assert_eq!(confidence_of(&flags(&[]), 0.5).unwrap(), 0.5);
        assert_eq!(
            confidence_of(&flags(&["--confidence", "1"]), 0.5).unwrap(),
            1.0
        );
        for bad in ["1.5", "-0.1", "NaN"] {
            let err = confidence_of(&flags(&["--confidence", bad]), 0.5).unwrap_err();
            assert!(err.contains("[0, 1]"), "{bad}: {err}");
        }
        assert_eq!(serve_secs(&flags(&[])).unwrap(), None);
        assert_eq!(
            serve_secs(&flags(&["--serve-secs", "0.5"])).unwrap(),
            Some(0.5)
        );
        for bad in ["-1", "inf", "NaN"] {
            assert!(serve_secs(&flags(&["--serve-secs", bad])).is_err(), "{bad}");
        }
        assert!(serve_secs(&flags(&["--serve-secs", "soon"]))
            .unwrap_err()
            .contains("cannot parse"));
        assert_eq!(wait_window(Some(0.0)), 0.0);
    }

    #[test]
    fn stats_mode_variants() {
        let mode = |toks: &[&str]| stats_mode(&parse_flags(&argv(toks)).unwrap());
        assert_eq!(mode(&[]).unwrap(), StatsMode::Off);
        assert_eq!(mode(&["--stats"]).unwrap(), StatsMode::Human);
        assert_eq!(mode(&["--stats=json"]).unwrap(), StatsMode::Json);
        assert!(mode(&["--stats=yaml"]).is_err());
    }
}
