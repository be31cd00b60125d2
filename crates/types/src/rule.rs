//! Association rules `X − Y ⇒ Y` with their support counts (§1.1): the
//! record the rule generator produces, snapshots persist and the query
//! server answers from.

use crate::itemset::Itemset;
use std::fmt;

/// One association rule `antecedent ⇒ consequent` with its statistics.
///
/// Rules come from `assoc_rules::generate`; snapshots store them as
/// they are.
///
/// ```
/// use mining_types::{Itemset, Rule};
/// let rule = Rule {
///     antecedent: Itemset::of(&[2]),
///     consequent: Itemset::of(&[1]),
///     support: 4,
///     antecedent_support: 5,
///     consequent_support: 10,
/// };
/// assert!((rule.confidence() - 0.8).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Rule {
    /// The antecedent `X − Y`.
    pub antecedent: Itemset,
    /// The consequent `Y`.
    pub consequent: Itemset,
    /// Absolute support count of `X = antecedent ∪ consequent`.
    pub support: u32,
    /// Absolute support count of the antecedent.
    pub antecedent_support: u32,
    /// Absolute support count of the consequent.
    pub consequent_support: u32,
}

impl Rule {
    /// Confidence `support(X) / support(X − Y)` — the conditional
    /// probability of §1.1.
    pub fn confidence(&self) -> f64 {
        self.support as f64 / self.antecedent_support as f64
    }

    /// Lift relative to consequent base rate, given the database size.
    pub fn lift(&self, num_transactions: usize) -> f64 {
        assert!(num_transactions > 0);
        self.confidence() / (self.consequent_support as f64 / num_transactions as f64)
    }

    /// Support as a fraction of the database.
    pub fn support_fraction(&self, num_transactions: usize) -> f64 {
        assert!(num_transactions > 0);
        self.support as f64 / num_transactions as f64
    }

    /// Leverage: observed minus expected co-occurrence frequency,
    /// `sup(X∪Y)/n − (sup(X)/n)·(sup(Y)/n)`. Zero when antecedent and
    /// consequent are independent, positive when they co-occur more than
    /// chance predicts.
    pub fn leverage(&self, num_transactions: usize) -> f64 {
        assert!(num_transactions > 0);
        let n = num_transactions as f64;
        self.support as f64 / n
            - (self.antecedent_support as f64 / n) * (self.consequent_support as f64 / n)
    }

    /// Conviction: `(1 − sup(Y)/n) / (1 − confidence)` — how much more
    /// often the antecedent appears *without* the consequent than it
    /// would under independence. `1.0` at independence,
    /// [`f64::INFINITY`] for exact (confidence 1) rules.
    pub fn conviction(&self, num_transactions: usize) -> f64 {
        assert!(num_transactions > 0);
        let conf = self.confidence();
        if conf >= 1.0 {
            return f64::INFINITY;
        }
        (1.0 - self.consequent_support as f64 / num_transactions as f64) / (1.0 - conf)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} => {}  (support {}, confidence {:.3})",
            self.antecedent,
            self.consequent,
            self.support,
            self.confidence()
        )
    }
}
