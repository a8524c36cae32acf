//! Population configuration: who is a source, with which preference, and
//! the sample size `h`.

use crate::opinion::Opinion;
use crate::{EngineError, Result};

/// An agent's role, fixed for the whole execution (the adversary of the
/// self-stabilizing setting chooses roles but cannot corrupt them —
/// Section 1.3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// A source agent with its initial preference. Sources know they are
    /// sources; the preference does not prevent the agent from later
    /// adopting a different *opinion*.
    Source(Opinion),
    /// A regular agent.
    NonSource,
}

impl Role {
    /// Returns `true` for sources.
    pub fn is_source(self) -> bool {
        matches!(self, Role::Source(_))
    }

    /// The source preference, if any.
    pub fn preference(self) -> Option<Opinion> {
        match self {
            Role::Source(p) => Some(p),
            Role::NonSource => None,
        }
    }

    /// Inverts the source preference — the trend-change fault of
    /// [`crate::faults`]. Returns `true` if there was one to invert.
    pub fn flip_preference(&mut self) -> bool {
        match self {
            Role::Source(p) => {
                *p = !*p;
                true
            }
            Role::NonSource => false,
        }
    }
}

/// Static description of a population: size, source counts, and per-round
/// sample size.
///
/// Notation matches the paper: `s0`/`s1` are the numbers of sources
/// preferring 0/1, the *bias* is `s = |s1 − s0| ≥ 1`, and the *correct
/// opinion* is the preference of the strict majority of sources.
///
/// # Example
///
/// ```
/// use np_engine::{opinion::Opinion, population::PopulationConfig};
///
/// let cfg = PopulationConfig::new(100, 2, 5, 10)?; // n=100, s0=2, s1=5, h=10
/// assert_eq!(cfg.bias(), 3);
/// assert_eq!(cfg.correct_opinion(), Opinion::One);
/// assert_eq!(cfg.num_sources(), 7);
/// # Ok::<(), np_engine::EngineError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PopulationConfig {
    n: usize,
    s0: usize,
    s1: usize,
    h: usize,
}

impl PopulationConfig {
    /// Creates a configuration with `n` agents, `s0` sources preferring 0,
    /// `s1` sources preferring 1, and sample size `h`.
    ///
    /// # Errors
    ///
    /// * [`EngineError::BadPopulation`] if `n == 0`, `h == 0`,
    ///   `s0 + s1 > n`, or `s0 + s1 == 0`.
    /// * [`EngineError::TiedSources`] if `s0 == s1` (the paper requires a
    ///   strict majority, `s ≥ 1`).
    pub fn new(n: usize, s0: usize, s1: usize, h: usize) -> Result<Self> {
        if n == 0 {
            return Err(EngineError::BadPopulation {
                detail: "population size n must be positive".into(),
            });
        }
        if h == 0 {
            return Err(EngineError::BadPopulation {
                detail: "sample size h must be positive".into(),
            });
        }
        let sources = s0
            .checked_add(s1)
            .ok_or_else(|| EngineError::BadPopulation {
                detail: "source count overflow".into(),
            })?;
        if sources > n {
            return Err(EngineError::BadPopulation {
                detail: format!("s0 + s1 = {sources} exceeds n = {n}"),
            });
        }
        if sources == 0 {
            return Err(EngineError::BadPopulation {
                detail: "at least one source is required".into(),
            });
        }
        if s0 == s1 {
            return Err(EngineError::TiedSources { count: s0 });
        }
        Ok(PopulationConfig { n, s0, s1, h })
    }

    /// Single agreeing-source shorthand: one source preferring `correct`,
    /// everyone else a non-source.
    ///
    /// # Errors
    ///
    /// Same as [`PopulationConfig::new`].
    pub fn single_source(n: usize, correct: Opinion, h: usize) -> Result<Self> {
        match correct {
            Opinion::Zero => PopulationConfig::new(n, 1, 0, h),
            Opinion::One => PopulationConfig::new(n, 0, 1, h),
        }
    }

    /// Number of agents `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Sources preferring 0.
    pub fn s0(&self) -> usize {
        self.s0
    }

    /// Sources preferring 1.
    pub fn s1(&self) -> usize {
        self.s1
    }

    /// Per-round sample size `h`.
    pub fn h(&self) -> usize {
        self.h
    }

    /// Total number of sources `s0 + s1`.
    pub fn num_sources(&self) -> usize {
        self.s0 + self.s1
    }

    /// The bias `s = |s1 − s0| ≥ 1`.
    pub fn bias(&self) -> usize {
        self.s1.abs_diff(self.s0)
    }

    /// The correct opinion: the preference of the strict majority of
    /// sources.
    pub fn correct_opinion(&self) -> Opinion {
        if self.s1 > self.s0 {
            Opinion::One
        } else {
            Opinion::Zero
        }
    }

    /// Returns `true` if the paper's mild source-count assumption
    /// `s0, s1 ≤ n/4` (Eq. (18)) holds; the theorems are stated under it.
    pub fn satisfies_source_assumption(&self) -> bool {
        4 * self.s0 <= self.n && 4 * self.s1 <= self.n
    }

    /// The role of agent `id` under the canonical layout: agents
    /// `0..s1` are 1-sources, `s1..s1+s0` are 0-sources, the rest are
    /// non-sources. (The model is fully symmetric under relabeling —
    /// sampling is uniform — so fixing the layout loses no generality and
    /// keeps runs reproducible.)
    ///
    /// # Panics
    ///
    /// Panics if `id >= self.n()`.
    pub fn role_of(&self, id: usize) -> Role {
        assert!(id < self.n, "agent id {id} out of range {}", self.n);
        if id < self.s1 {
            Role::Source(Opinion::One)
        } else if id < self.s1 + self.s0 {
            Role::Source(Opinion::Zero)
        } else {
            Role::NonSource
        }
    }

    /// Iterates over all roles in agent-id order.
    pub fn iter_roles(&self) -> impl Iterator<Item = Role> + '_ {
        (0..self.n).map(|id| self.role_of(id))
    }

    /// Returns a copy with a different sample size.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BadPopulation`] if `h == 0`.
    pub fn with_h(&self, h: usize) -> Result<Self> {
        PopulationConfig::new(self.n, self.s0, self.s1, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_preference_inverts_sources_only() {
        let mut source = Role::Source(Opinion::Zero);
        assert!(source.flip_preference());
        assert_eq!(source, Role::Source(Opinion::One));
        let mut non = Role::NonSource;
        assert!(!non.flip_preference());
        assert_eq!(non, Role::NonSource);
    }

    #[test]
    fn valid_configuration() {
        let cfg = PopulationConfig::new(10, 1, 3, 5).unwrap();
        assert_eq!(cfg.n(), 10);
        assert_eq!(cfg.s0(), 1);
        assert_eq!(cfg.s1(), 3);
        assert_eq!(cfg.h(), 5);
        assert_eq!(cfg.num_sources(), 4);
        assert_eq!(cfg.bias(), 2);
        assert_eq!(cfg.correct_opinion(), Opinion::One);
    }

    #[test]
    fn zero_majority_configuration() {
        let cfg = PopulationConfig::new(10, 3, 1, 1).unwrap();
        assert_eq!(cfg.correct_opinion(), Opinion::Zero);
        assert_eq!(cfg.bias(), 2);
    }

    #[test]
    fn invalid_configurations() {
        assert!(PopulationConfig::new(0, 0, 1, 1).is_err());
        assert!(PopulationConfig::new(10, 0, 1, 0).is_err());
        assert!(PopulationConfig::new(10, 6, 5, 1).is_err());
        assert!(PopulationConfig::new(10, 0, 0, 1).is_err());
        assert!(matches!(
            PopulationConfig::new(10, 2, 2, 1),
            Err(EngineError::TiedSources { count: 2 })
        ));
    }

    #[test]
    fn single_source_shorthand() {
        let cfg = PopulationConfig::single_source(50, Opinion::One, 7).unwrap();
        assert_eq!(cfg.s1(), 1);
        assert_eq!(cfg.s0(), 0);
        assert_eq!(cfg.correct_opinion(), Opinion::One);
        let cfg0 = PopulationConfig::single_source(50, Opinion::Zero, 7).unwrap();
        assert_eq!(cfg0.correct_opinion(), Opinion::Zero);
    }

    #[test]
    fn role_layout() {
        let cfg = PopulationConfig::new(6, 2, 1, 1).unwrap();
        let roles: Vec<Role> = cfg.iter_roles().collect();
        assert_eq!(
            roles,
            vec![
                Role::Source(Opinion::One),
                Role::Source(Opinion::Zero),
                Role::Source(Opinion::Zero),
                Role::NonSource,
                Role::NonSource,
                Role::NonSource,
            ]
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn role_of_out_of_range() {
        let cfg = PopulationConfig::new(3, 0, 1, 1).unwrap();
        let _ = cfg.role_of(3);
    }

    #[test]
    fn role_helpers() {
        assert!(Role::Source(Opinion::One).is_source());
        assert!(!Role::NonSource.is_source());
        assert_eq!(
            Role::Source(Opinion::Zero).preference(),
            Some(Opinion::Zero)
        );
        assert_eq!(Role::NonSource.preference(), None);
    }

    #[test]
    fn source_assumption() {
        assert!(PopulationConfig::new(100, 5, 10, 1)
            .unwrap()
            .satisfies_source_assumption());
        assert!(!PopulationConfig::new(100, 5, 30, 1)
            .unwrap()
            .satisfies_source_assumption());
    }

    #[test]
    fn with_h_changes_only_h() {
        let cfg = PopulationConfig::new(10, 1, 2, 3).unwrap();
        let cfg2 = cfg.with_h(10).unwrap();
        assert_eq!(cfg2.h(), 10);
        assert_eq!(cfg2.n(), 10);
        assert!(cfg.with_h(0).is_err());
    }
}
