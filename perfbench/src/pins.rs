//! Pinned output digests, compiled into the benchmark.
//!
//! `pins/sim.txt` holds the digest of every `MixResult` the `sim`
//! workload can produce (the pool's mixes are finite, so every seed is
//! covered); `pins/campaign.txt` holds CSV-bundle digests of the
//! `campaign` workload for a range of seeds. Each line is
//! `<scale> <key> <digest-hex>`. `perfbench pin ...` regenerates them.

use std::collections::BTreeMap;

const SIM: &str = include_str!("../pins/sim.txt");
const CAMPAIGN: &str = include_str!("../pins/campaign.txt");

/// A set of pinned digests keyed by `(scale, key)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Pins {
    map: BTreeMap<(String, String), u64>,
}

impl Pins {
    /// Parses pin lines; blank lines and `#` comments are skipped.
    pub fn parse(text: &str) -> Self {
        let mut map = BTreeMap::new();
        for line in text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let mut parts = line.split_whitespace();
            if let (Some(scale), Some(key), Some(hex)) = (parts.next(), parts.next(), parts.next())
            {
                if let Ok(digest) = u64::from_str_radix(hex, 16) {
                    map.insert((scale.to_string(), key.to_string()), digest);
                }
            }
        }
        Self { map }
    }

    /// The compiled-in `sim` pins.
    pub fn sim() -> Self {
        Self::parse(SIM)
    }

    /// The compiled-in `campaign` pins.
    pub fn campaign() -> Self {
        Self::parse(CAMPAIGN)
    }

    /// The digest pinned for `key` at `scale`.
    pub fn get(&self, scale: &str, key: &str) -> Option<u64> {
        self.map.get(&(scale.to_string(), key.to_string())).copied()
    }

    /// Adds or replaces a pin.
    pub fn insert(&mut self, scale: &str, key: &str, digest: u64) {
        self.map
            .insert((scale.to_string(), key.to_string()), digest);
    }

    /// Pin-file text, one sorted line per pin.
    pub fn render(&self, header: &str) -> String {
        let mut out = format!("# {header}\n");
        for ((scale, key), digest) in &self.map {
            out.push_str(&format!("{scale} {key} {digest:016x}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_lines_round_trip() {
        let mut pins = Pins::default();
        pins.insert("full", "gcc+mcf", 0xdead_beef);
        pins.insert("smoke", "s64x1", 7);
        let back = Pins::parse(&pins.render("test pins"));
        assert_eq!(back, pins);
        assert_eq!(back.get("full", "gcc+mcf"), Some(0xdead_beef));
        assert_eq!(back.get("full", "nope"), None);
    }
}
