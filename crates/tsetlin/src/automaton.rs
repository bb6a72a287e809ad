//! The Tsetlin Automaton — the two-action learning element of the machine.
//!
//! Each literal of each clause is guarded by one automaton with `2n` states:
//! states `1..=n` select the **exclude** action, states `n+1..=2n` select
//! **include** (Fig 1(b) of the paper). Rewards push the automaton deeper
//! into its current action; penalties push it toward the opposite action.

/// Action selected by a [`TsetlinAutomaton`]: whether the guarded literal
/// participates in its clause's AND expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Action {
    /// The literal is left out of the clause (boolean action 0).
    Exclude,
    /// The literal is ANDed into the clause (boolean action 1).
    Include,
}

impl Action {
    /// The boolean encoding used by the model translation (Fig 2):
    /// `Include` → 1, `Exclude` → 0.
    pub fn as_bit(self) -> bool {
        matches!(self, Action::Include)
    }
}

/// A two-action Tsetlin Automaton with `2 * states_per_action` states.
///
/// The state is stored as a `u16` in `1..=2n`; `n` is
/// [`TsetlinAutomaton::states_per_action`]. New automata start on the
/// exclude side of the decision boundary (state `n`), the standard TM
/// initialization that biases freshly initialized clauses toward sparsity.
///
/// # Examples
///
/// ```
/// use tsetlin::automaton::{Action, TsetlinAutomaton};
///
/// let mut ta = TsetlinAutomaton::new(128);
/// assert_eq!(ta.action(), Action::Exclude);
/// ta.penalize(); // pushed across the boundary toward include
/// assert_eq!(ta.action(), Action::Include);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct TsetlinAutomaton {
    state: u16,
    states_per_action: u16,
}

impl TsetlinAutomaton {
    /// Creates an automaton with `states_per_action` states on each side,
    /// initialized to the boundary exclude state `n`.
    ///
    /// # Panics
    ///
    /// Panics if `states_per_action` is zero or would overflow `u16`
    /// (must be `<= 32767`).
    pub fn new(states_per_action: u16) -> Self {
        assert!(states_per_action > 0, "states_per_action must be positive");
        assert!(
            states_per_action <= i16::MAX as u16,
            "states_per_action must fit in u16 when doubled"
        );
        TsetlinAutomaton {
            state: states_per_action,
            states_per_action,
        }
    }

    /// Creates an automaton at an explicit state.
    ///
    /// # Panics
    ///
    /// Panics if `state` is outside `1..=2*states_per_action`.
    pub fn with_state(states_per_action: u16, state: u16) -> Self {
        assert!(
            (1..=2 * states_per_action).contains(&state),
            "state {state} outside 1..={}",
            2 * states_per_action
        );
        TsetlinAutomaton {
            state,
            states_per_action,
        }
    }

    /// Current raw state in `1..=2n`.
    pub fn state(&self) -> u16 {
        self.state
    }

    /// Number of states on each side of the decision boundary.
    pub fn states_per_action(&self) -> u16 {
        self.states_per_action
    }

    /// The currently selected action.
    pub fn action(&self) -> Action {
        if self.state > self.states_per_action {
            Action::Include
        } else {
            Action::Exclude
        }
    }

    /// Confidence depth: how many states the automaton sits away from the
    /// decision boundary (1 = just across it).
    pub fn depth(&self) -> u16 {
        if self.state > self.states_per_action {
            self.state - self.states_per_action
        } else {
            self.states_per_action - self.state + 1
        }
    }

    /// Reward: reinforce the current action by moving away from the
    /// boundary, saturating at the extreme states.
    pub fn reward(&mut self) {
        match self.action() {
            Action::Include => {
                if self.state < 2 * self.states_per_action {
                    self.state += 1;
                }
            }
            Action::Exclude => {
                if self.state > 1 {
                    self.state -= 1;
                }
            }
        }
    }

    /// Penalty: weaken the current action by moving toward (and possibly
    /// across) the boundary.
    pub fn penalize(&mut self) {
        match self.action() {
            Action::Include => self.state -= 1,
            Action::Exclude => self.state += 1,
        }
    }

    /// One step toward include: a reward on the include side, a penalty
    /// on the exclude side. Returns whether the action flipped to include.
    #[inline]
    pub(crate) fn step_include(&mut self) -> bool {
        let flips = self.state == self.states_per_action;
        if self.state < 2 * self.states_per_action {
            self.state += 1;
        }
        flips
    }

    /// One step toward exclude: a reward on the exclude side, a penalty
    /// on the include side. Returns whether the action flipped to exclude.
    #[inline]
    pub(crate) fn step_exclude(&mut self) -> bool {
        let flips = self.state == self.states_per_action + 1;
        if self.state > 1 {
            self.state -= 1;
        }
        flips
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_excluded_at_boundary() {
        let ta = TsetlinAutomaton::new(100);
        assert_eq!(ta.action(), Action::Exclude);
        assert_eq!(ta.state(), 100);
        assert_eq!(ta.depth(), 1);
    }

    #[test]
    fn penalty_crosses_boundary() {
        let mut ta = TsetlinAutomaton::new(4);
        ta.penalize();
        assert_eq!(ta.action(), Action::Include);
        assert_eq!(ta.state(), 5);
        ta.penalize();
        assert_eq!(ta.action(), Action::Exclude);
    }

    #[test]
    fn reward_saturates_at_extremes() {
        let mut ta = TsetlinAutomaton::with_state(3, 1);
        ta.reward();
        assert_eq!(ta.state(), 1);
        let mut ta = TsetlinAutomaton::with_state(3, 6);
        ta.reward();
        assert_eq!(ta.state(), 6);
    }

    #[test]
    fn reward_deepens_current_action() {
        let mut ta = TsetlinAutomaton::with_state(10, 15); // include side
        ta.reward();
        assert_eq!(ta.state(), 16);
        let mut ta = TsetlinAutomaton::with_state(10, 5); // exclude side
        ta.reward();
        assert_eq!(ta.state(), 4);
    }

    #[test]
    fn steps_are_reward_or_penalty_by_side() {
        for n in [1u16, 2, 5] {
            for state in 1..=2 * n {
                let ta = TsetlinAutomaton::with_state(n, state);
                let (mut include, mut exclude) = (ta, ta);
                let (mut rewarded, mut penalized) = (ta, ta);
                rewarded.reward();
                penalized.penalize();
                let (toward_include, toward_exclude) = match ta.action() {
                    Action::Include => (rewarded, penalized),
                    Action::Exclude => (penalized, rewarded),
                };
                let flipped = include.step_include();
                assert_eq!(include, toward_include, "n {n} state {state}");
                assert_eq!(flipped, include.action() != ta.action());
                let flipped = exclude.step_exclude();
                assert_eq!(exclude, toward_exclude, "n {n} state {state}");
                assert_eq!(flipped, exclude.action() != ta.action());
            }
        }
    }

    #[test]
    fn depth_is_distance_from_boundary() {
        assert_eq!(TsetlinAutomaton::with_state(10, 10).depth(), 1);
        assert_eq!(TsetlinAutomaton::with_state(10, 11).depth(), 1);
        assert_eq!(TsetlinAutomaton::with_state(10, 1).depth(), 10);
        assert_eq!(TsetlinAutomaton::with_state(10, 20).depth(), 10);
    }

    #[test]
    fn action_bit_encoding() {
        assert!(Action::Include.as_bit());
        assert!(!Action::Exclude.as_bit());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn with_state_validates_range() {
        TsetlinAutomaton::with_state(4, 9);
    }
}
