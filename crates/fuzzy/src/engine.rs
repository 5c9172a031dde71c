//! The Mamdani inference engine: fuzzifier, inference, rule base, and
//! defuzzifier composed behind one API (the FLC structure of paper Fig. 2).

use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::defuzz::{Defuzzifier, DEFAULT_RESOLUTION};
use crate::error::{FuzzyError, Result};
use crate::membership::MembershipFunction;
use crate::norms::{Implication, SNorm, TNorm};
use crate::rule::{Connective, Rule, RuleBase};
use crate::set::SampledSet;
use crate::variable::Variable;

/// Tunable operators of the inference pipeline.
///
/// The default configuration is the paper's: `min` conjunction, `max`
/// disjunction, Mamdani clipping, `max` aggregation, centroid
/// defuzzification over [`DEFAULT_RESOLUTION`] samples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InferenceConfig {
    /// Conjunction operator for `AND` antecedents.
    pub tnorm: TNorm,
    /// Disjunction operator for `OR` antecedents.
    pub snorm: SNorm,
    /// Implication operator shaping consequents.
    pub implication: Implication,
    /// Aggregation operator combining rule outputs.
    pub aggregation: SNorm,
    /// Defuzzification strategy.
    pub defuzzifier: Defuzzifier,
    /// Sample count for area-based defuzzifiers.
    pub resolution: usize,
}

impl Default for InferenceConfig {
    fn default() -> Self {
        Self {
            tnorm: TNorm::Minimum,
            snorm: SNorm::Maximum,
            implication: Implication::Minimum,
            aggregation: SNorm::Maximum,
            defuzzifier: Defuzzifier::Centroid,
            resolution: DEFAULT_RESOLUTION,
        }
    }
}

/// A rule with every name resolved to indices — built once, evaluated hot.
#[derive(Debug, Clone)]
struct CompiledRule {
    clauses: Vec<CompiledClause>,
    connective: Connective,
    consequents: Vec<CompiledConsequent>,
    weight: f64,
}

#[derive(Debug, Clone, Copy)]
struct CompiledClause {
    input: usize,
    term: usize,
    negated: bool,
}

#[derive(Debug, Clone, Copy)]
struct CompiledConsequent {
    output: usize,
    term: usize,
}

/// Reusable evaluation buffers, one set per thread.
///
/// Inference needs several short-lived vectors (clamped readings, term
/// memberships, rule firings, the aggregation surface). Allocating them
/// per call dominated the exact backend's profile, so they live in a
/// thread-local pool instead: `Engine::evaluate*` stays `&self` (the
/// engine remains `Send + Sync` and shareable across threads) while the
/// steady-state hot path allocates nothing.
#[derive(Debug, Default)]
struct Scratch {
    /// Clamped input readings, in declaration order.
    readings: Vec<f64>,
    /// Which inputs have been supplied (name-based entry point only).
    filled: Vec<bool>,
    /// Flattened `memberships[term_offsets[input] + term]`.
    memberships: Vec<f64>,
    /// Firing strength per rule (crisp-only path; the outcome path
    /// allocates because the firings escape into the returned value).
    firings: Vec<f64>,
    /// `(strength, representative)` pairs for weighted-average defuzz.
    activations: Vec<(f64, f64)>,
    /// `(term, strength)` merges the aggregation step performs, in order.
    contributions: Vec<(usize, f64)>,
    /// Per-term strongest firing of one output (max aggregation only).
    term_strengths: Vec<f64>,
    /// Aggregation surfaces reused by the crisp-only path, one per
    /// distinct (universe, resolution) shape seen on this thread — so
    /// engines with different output universes (e.g. the FLC1 → FLC2
    /// cascade) each keep their own buffer instead of evicting each
    /// other's.
    surfaces: Vec<SampledSet>,
}

/// Upper bound on distinct scratch surfaces kept per thread; beyond it
/// the oldest slot is recycled (threads normally alternate between a
/// handful of engines, so this is never hit in practice).
const MAX_SCRATCH_SURFACES: usize = 8;

impl Scratch {
    /// A zeroed surface of the requested shape from `surfaces`, reusing
    /// a cached buffer when one matches. (Takes the field rather than
    /// `&mut self` so callers can hold other scratch fields at the same
    /// time.)
    fn surface_for_in<'a>(
        surfaces: &'a mut Vec<SampledSet>,
        var: &Variable,
        resolution: usize,
    ) -> Result<&'a mut SampledSet> {
        if let Some(i) = surfaces
            .iter()
            .position(|s| s.len() == resolution && s.min() == var.min() && s.max() == var.max())
        {
            let surface = &mut surfaces[i];
            surface.zero();
            return Ok(surface);
        }
        let fresh = SampledSet::empty(var.min(), var.max(), resolution)?;
        if surfaces.len() >= MAX_SCRATCH_SURFACES {
            surfaces[0] = fresh;
            return Ok(&mut surfaces[0]);
        }
        surfaces.push(fresh);
        Ok(surfaces.last_mut().expect("just pushed"))
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// One crisp output plus its supporting evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputValue {
    name: String,
    crisp: f64,
    surface: Option<SampledSet>,
}

impl OutputValue {
    /// The output variable name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The defuzzified crisp value.
    #[must_use]
    pub fn crisp(&self) -> f64 {
        self.crisp
    }

    /// The aggregated fuzzy surface this value was defuzzified from
    /// (`None` under the weighted-average strategy, which skips it).
    #[must_use]
    pub fn surface(&self) -> Option<&SampledSet> {
        self.surface.as_ref()
    }
}

/// The result of one inference pass: crisp outputs plus per-rule firing
/// strengths (exposed per C-INTERMEDIATE so callers can audit decisions).
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    outputs: Vec<OutputValue>,
    firings: Vec<f64>,
}

impl Outcome {
    /// Crisp value of the named output, if it exists.
    #[must_use]
    pub fn crisp(&self, name: &str) -> Option<f64> {
        let lower = name.to_ascii_lowercase();
        self.outputs.iter().find(|o| o.name == lower).map(|o| o.crisp)
    }

    /// Full [`OutputValue`] of the named output.
    #[must_use]
    pub fn output(&self, name: &str) -> Option<&OutputValue> {
        let lower = name.to_ascii_lowercase();
        self.outputs.iter().find(|o| o.name == lower)
    }

    /// All outputs in declaration order.
    #[must_use]
    pub fn outputs(&self) -> &[OutputValue] {
        &self.outputs
    }

    /// Firing strength of every rule, in rule-base order.
    #[must_use]
    pub fn firing_strengths(&self) -> &[f64] {
        &self.firings
    }

    /// Index and strength of the strongest-firing rule, or `None` when
    /// nothing fired.
    #[must_use]
    pub fn dominant_rule(&self) -> Option<(usize, f64)> {
        self.firings
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, s)| s > 0.0)
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// A compiled Mamdani fuzzy-logic controller.
///
/// Build with [`Engine::builder`]; evaluate with [`Engine::evaluate`] (or
/// [`Engine::evaluate_single`] when there is exactly one output):
///
/// ```
/// use facs_fuzzy::{Engine, MembershipFunction, Rule, Variable};
///
/// # fn main() -> Result<(), facs_fuzzy::FuzzyError> {
/// let service = Variable::builder("service", 0.0, 10.0)
///     .term("poor", MembershipFunction::triangular(0.0, 0.0, 5.0)?)
///     .term("good", MembershipFunction::triangular(5.0, 5.0, 5.0)?)
///     .term("excellent", MembershipFunction::triangular(10.0, 5.0, 0.0)?)
///     .build()?;
/// let tip = Variable::builder("tip", 0.0, 30.0)
///     .term("low", MembershipFunction::triangular(5.0, 5.0, 5.0)?)
///     .term("medium", MembershipFunction::triangular(15.0, 5.0, 5.0)?)
///     .term("high", MembershipFunction::triangular(25.0, 5.0, 5.0)?)
///     .build()?;
/// let engine = Engine::builder()
///     .input(service)
///     .output(tip)
///     .rule(Rule::when("service", "poor").then("tip", "low").build()?)
///     .rule(Rule::when("service", "good").then("tip", "medium").build()?)
///     .rule(Rule::when("service", "excellent").then("tip", "high").build()?)
///     .build()?;
/// let tip = engine.evaluate_single(&[("service", 10.0)])?;
/// assert!(tip > 20.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    inputs: Vec<Variable>,
    outputs: Vec<Variable>,
    input_index: HashMap<String, usize>,
    output_index: HashMap<String, usize>,
    rule_base: RuleBase,
    compiled: Vec<CompiledRule>,
    fallbacks: HashMap<usize, f64>,
    config: InferenceConfig,
    /// `term_offsets[i]` is where input `i`'s term memberships start in
    /// the flattened scratch membership buffer; the final entry is the
    /// total term count.
    term_offsets: Vec<usize>,
    /// `term_spans[o][t]`: the aggregation-grid samples of output `o`
    /// outside of which term `t`'s membership is exactly zero.
    term_spans: Vec<Vec<Range<usize>>>,
}

impl Engine {
    /// Starts building an engine.
    #[must_use]
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// The input variables, in declaration order.
    #[must_use]
    pub fn inputs(&self) -> &[Variable] {
        &self.inputs
    }

    /// The output variables, in declaration order.
    #[must_use]
    pub fn outputs(&self) -> &[Variable] {
        &self.outputs
    }

    /// The rule base the engine was compiled from.
    #[must_use]
    pub fn rule_base(&self) -> &RuleBase {
        &self.rule_base
    }

    /// Looks an input variable up by (case-insensitive) name.
    #[must_use]
    pub fn input_variable(&self, name: &str) -> Option<&Variable> {
        self.input_index.get(&name.to_ascii_lowercase()).map(|&i| &self.inputs[i])
    }

    /// Looks an output variable up by (case-insensitive) name.
    #[must_use]
    pub fn output_variable(&self, name: &str) -> Option<&Variable> {
        self.output_index.get(&name.to_ascii_lowercase()).map(|&i| &self.outputs[i])
    }

    /// The inference configuration.
    #[must_use]
    pub fn config(&self) -> &InferenceConfig {
        &self.config
    }

    /// Runs one inference pass.
    ///
    /// `values` pairs input-variable names with crisp readings; order does
    /// not matter and names are case-insensitive. Readings are clamped into
    /// each variable's universe.
    ///
    /// # Errors
    ///
    /// * [`FuzzyError::UnknownVariable`] — a supplied name is not an input;
    /// * [`FuzzyError::MissingInput`] — an input variable got no value;
    /// * [`FuzzyError::NonFiniteInput`] — a value is NaN or infinite;
    /// * [`FuzzyError::NoRuleFired`] — an output received no rule mass and
    ///   has no fallback configured.
    pub fn evaluate(&self, values: &[(&str, f64)]) -> Result<Outcome> {
        SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            self.gather_inputs_into(values, scratch)?;
            self.fuzzify_into(scratch);
            // The firings escape into the returned `Outcome`, so this one
            // vector is allocated per call by design.
            let mut firings = vec![0.0; self.compiled.len()];
            self.fire_rules_into(&scratch.memberships, &mut firings);
            let outputs = self.infer_outputs(&firings, scratch)?;
            Ok(Outcome { outputs, firings })
        })
    }

    /// Runs one inference pass over positional readings and returns the
    /// single output's crisp value.
    ///
    /// `readings` pairs with the input variables **in declaration order**
    /// and each value is clamped into its variable's universe. This is
    /// the allocation-free hot path behind the admission cascade and the
    /// compiled-surface builder: all intermediate buffers (including the
    /// aggregation surface) come from a per-thread scratch pool, so the
    /// steady state performs no heap allocation. Results are bit-identical
    /// to [`Engine::evaluate`] + [`Outcome::crisp`].
    ///
    /// # Errors
    ///
    /// * [`FuzzyError::MissingInput`] — fewer readings than inputs;
    /// * [`FuzzyError::UnknownVariable`] — more readings than inputs;
    /// * [`FuzzyError::NonFiniteInput`] — a reading is NaN or infinite;
    /// * [`FuzzyError::NoRuleFired`] — no rule mass and no fallback;
    /// * [`FuzzyError::InvalidMembership`] — the engine has more than one
    ///   output (use [`Engine::evaluate`] there).
    pub fn evaluate_crisp(&self, readings: &[f64]) -> Result<f64> {
        if self.outputs.len() != 1 {
            return Err(FuzzyError::InvalidMembership {
                reason: format!(
                    "evaluate_crisp requires exactly one output (engine has {})",
                    self.outputs.len()
                ),
            });
        }
        if readings.len() < self.inputs.len() {
            return Err(FuzzyError::MissingInput {
                variable: self.inputs[readings.len()].name().to_owned(),
            });
        }
        if readings.len() > self.inputs.len() {
            return Err(FuzzyError::UnknownVariable {
                variable: format!("positional input #{}", self.inputs.len()),
            });
        }
        SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            scratch.readings.clear();
            for (var, &value) in self.inputs.iter().zip(readings) {
                if !value.is_finite() {
                    return Err(FuzzyError::NonFiniteInput {
                        variable: var.name().to_owned(),
                        value,
                    });
                }
                scratch.readings.push(var.clamp(value));
            }
            self.fuzzify_into(scratch);
            let Scratch { memberships, firings, .. } = scratch;
            firings.clear();
            firings.resize(self.compiled.len(), 0.0);
            self.fire_rules_into(memberships, firings);
            let var = &self.outputs[0];
            if self.config.defuzzifier.needs_surface() {
                let Scratch { firings, surfaces, contributions, term_strengths, .. } = scratch;
                let surface = Scratch::surface_for_in(surfaces, var, self.config.resolution)?;
                if self.accumulate_surface(0, firings, contributions, term_strengths, surface) {
                    self.crisp_of_surface(var, surface)
                } else {
                    self.fallback_crisp(0, var)
                }
            } else {
                self.crisp_weighted(0, var, &scratch.firings, &mut scratch.activations)
            }
        })
    }

    /// Like [`Engine::evaluate`] but returns the single output's crisp
    /// value directly.
    ///
    /// # Errors
    ///
    /// As [`Engine::evaluate`]. Additionally returns an error if the engine
    /// has more than one output (use `evaluate` there).
    pub fn evaluate_single(&self, values: &[(&str, f64)]) -> Result<f64> {
        if self.outputs.len() != 1 {
            return Err(FuzzyError::InvalidMembership {
                reason: format!(
                    "evaluate_single requires exactly one output (engine has {})",
                    self.outputs.len()
                ),
            });
        }
        let outcome = self.evaluate(values)?;
        Ok(outcome.outputs[0].crisp)
    }

    /// Resolves name-keyed values into `scratch.readings` (declaration
    /// order, clamped), reusing the scratch slot/flag buffers instead of
    /// allocating per call.
    fn gather_inputs_into(&self, values: &[(&str, f64)], scratch: &mut Scratch) -> Result<()> {
        scratch.readings.clear();
        scratch.readings.resize(self.inputs.len(), 0.0);
        scratch.filled.clear();
        scratch.filled.resize(self.inputs.len(), false);
        for &(name, value) in values {
            let lower = name.to_ascii_lowercase();
            let idx = self
                .input_index
                .get(&lower)
                .copied()
                .ok_or_else(|| FuzzyError::UnknownVariable { variable: lower.clone() })?;
            if !value.is_finite() {
                return Err(FuzzyError::NonFiniteInput { variable: lower, value });
            }
            scratch.readings[idx] = self.inputs[idx].clamp(value);
            scratch.filled[idx] = true;
        }
        if let Some(i) = scratch.filled.iter().position(|&f| !f) {
            return Err(FuzzyError::MissingInput { variable: self.inputs[i].name().to_owned() });
        }
        Ok(())
    }

    /// Membership of each reading in each term, flattened into
    /// `scratch.memberships` at `self.term_offsets`.
    fn fuzzify_into(&self, scratch: &mut Scratch) {
        scratch.memberships.clear();
        for (var, &x) in self.inputs.iter().zip(&scratch.readings) {
            scratch.memberships.extend(var.terms().iter().map(|t| t.membership(x)));
        }
    }

    /// Firing strength per rule: connective fold over clause memberships,
    /// scaled by the rule weight. `firings` must already hold one slot per
    /// rule.
    fn fire_rules_into(&self, memberships: &[f64], firings: &mut [f64]) {
        for (slot, rule) in firings.iter_mut().zip(&self.compiled) {
            let mut degrees = rule.clauses.iter().map(|c| {
                let mu = memberships[self.term_offsets[c.input] + c.term];
                if c.negated {
                    1.0 - mu
                } else {
                    mu
                }
            });
            let strength = match rule.connective {
                Connective::And => {
                    let first = degrees.next().unwrap_or(1.0);
                    degrees.fold(first, |acc, d| self.config.tnorm.apply(acc, d))
                }
                Connective::Or => {
                    let first = degrees.next().unwrap_or(0.0);
                    degrees.fold(first, |acc, d| self.config.snorm.apply(acc, d))
                }
            };
            *slot = strength * rule.weight;
        }
    }

    fn infer_outputs(&self, firings: &[f64], scratch: &mut Scratch) -> Result<Vec<OutputValue>> {
        let mut outputs = Vec::with_capacity(self.outputs.len());
        for (out_idx, var) in self.outputs.iter().enumerate() {
            let value = if self.config.defuzzifier.needs_surface() {
                self.defuzzify_surface(out_idx, var, firings, scratch)?
            } else {
                let crisp = self.crisp_weighted(out_idx, var, firings, &mut scratch.activations)?;
                OutputValue { name: var.name().to_owned(), crisp, surface: None }
            };
            outputs.push(value);
        }
        Ok(outputs)
    }

    /// Aggregates every firing consequent of `out_idx` into `surface`
    /// (which must already be zeroed and shaped to the output universe).
    /// Returns `false` when no rule contributed mass.
    ///
    /// The result is bit-for-bit that of merging every firing rule's
    /// implied consequent over the whole grid, in rule order, with less
    /// work:
    ///
    /// * Under `max` aggregation each term's firing strengths are folded
    ///   to their maximum first, so a term is merged once however many
    ///   rules fire it. This is exact for both implications:
    ///   `max_r min(s_r, mu) == min(max_r s_r, mu)`, and `fl(s * mu)` is
    ///   monotone in `s`. Other aggregations merge per rule, in rule
    ///   order (the probabilistic sum is not associative in floating
    ///   point).
    /// * Each merge covers only the term's span in `term_spans`. Outside
    ///   it the membership is exactly zero, and every aggregation and
    ///   implication in [`crate::norms`] satisfies
    ///   `agg(v, imp(s, 0)) == v`, so those samples cannot change.
    fn accumulate_surface(
        &self,
        out_idx: usize,
        firings: &[f64],
        contributions: &mut Vec<(usize, f64)>,
        term_strengths: &mut Vec<f64>,
        surface: &mut SampledSet,
    ) -> bool {
        let var = &self.outputs[out_idx];
        let fired = self.compiled.iter().zip(firings).filter(|&(_, &s)| s > 0.0).flat_map(
            |(rule, &strength)| {
                rule.consequents
                    .iter()
                    .filter(move |c| c.output == out_idx)
                    .map(move |c| (c.term, strength))
            },
        );
        contributions.clear();
        if self.config.aggregation == SNorm::Maximum {
            term_strengths.clear();
            term_strengths.resize(var.terms().len(), 0.0);
            for (term, strength) in fired {
                term_strengths[term] = term_strengths[term].max(strength);
            }
            contributions
                .extend(term_strengths.iter().copied().enumerate().filter(|&(_, s)| s > 0.0));
        } else {
            contributions.extend(fired);
        }
        let InferenceConfig { implication, aggregation, .. } = self.config;
        for &(term, strength) in contributions.iter() {
            let mf = var.terms()[term].function();
            surface.merge_from_fn(
                self.term_spans[out_idx][term].clone(),
                |x| implication.apply(strength, mf.evaluate(x)),
                |a, b| aggregation.apply(a, b),
            );
        }
        !contributions.is_empty()
    }

    /// Defuzzifies an aggregated surface, rewriting the placeholder
    /// `NoRuleFired` variable name.
    fn crisp_of_surface(&self, var: &Variable, surface: &SampledSet) -> Result<f64> {
        self.config.defuzzifier.crisp(surface).map_err(|e| match e {
            FuzzyError::NoRuleFired { .. } => {
                FuzzyError::NoRuleFired { variable: var.name().to_owned() }
            }
            other => other,
        })
    }

    /// The configured fallback for `out_idx`, or the `NoRuleFired` error.
    fn fallback_crisp(&self, out_idx: usize, var: &Variable) -> Result<f64> {
        match self.fallbacks.get(&out_idx) {
            Some(&fallback) => Ok(fallback),
            None => Err(FuzzyError::NoRuleFired { variable: var.name().to_owned() }),
        }
    }

    fn defuzzify_surface(
        &self,
        out_idx: usize,
        var: &Variable,
        firings: &[f64],
        scratch: &mut Scratch,
    ) -> Result<OutputValue> {
        // This surface escapes into the returned `OutputValue`, so it is
        // built fresh rather than in the thread-local pool.
        let mut surface = SampledSet::empty(var.min(), var.max(), self.config.resolution)?;
        let Scratch { contributions, term_strengths, .. } = scratch;
        if !self.accumulate_surface(out_idx, firings, contributions, term_strengths, &mut surface) {
            let crisp = self.fallback_crisp(out_idx, var)?;
            return Ok(OutputValue { name: var.name().to_owned(), crisp, surface: Some(surface) });
        }
        let crisp = self.crisp_of_surface(var, &surface)?;
        Ok(OutputValue { name: var.name().to_owned(), crisp, surface: Some(surface) })
    }

    /// Weighted-average defuzzification of `out_idx`, reusing the scratch
    /// activation buffer.
    fn crisp_weighted(
        &self,
        out_idx: usize,
        var: &Variable,
        firings: &[f64],
        activations: &mut Vec<(f64, f64)>,
    ) -> Result<f64> {
        activations.clear();
        for (rule, &strength) in self.compiled.iter().zip(firings) {
            if strength <= 0.0 {
                continue;
            }
            for consequent in &rule.consequents {
                if consequent.output == out_idx {
                    let representative = var.terms()[consequent.term].function().representative();
                    activations.push((strength, representative));
                }
            }
        }
        match self.config.defuzzifier.crisp_from_activations(activations) {
            Ok(crisp) => Ok(crisp.clamp(var.min(), var.max())),
            Err(FuzzyError::NoRuleFired { .. }) => self.fallback_crisp(out_idx, var),
            Err(other) => Err(other),
        }
    }
}

/// Builder for [`Engine`].
#[derive(Debug, Default)]
pub struct EngineBuilder {
    inputs: Vec<Variable>,
    outputs: Vec<Variable>,
    rules: RuleBase,
    fallbacks: Vec<(String, f64)>,
    config: InferenceConfig,
}

impl EngineBuilder {
    /// Adds an input variable.
    #[must_use]
    pub fn input(mut self, variable: Variable) -> Self {
        self.inputs.push(variable);
        self
    }

    /// Adds an output variable.
    #[must_use]
    pub fn output(mut self, variable: Variable) -> Self {
        self.outputs.push(variable);
        self
    }

    /// Appends one rule.
    #[must_use]
    pub fn rule(mut self, rule: Rule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Appends every rule of `rules`.
    #[must_use]
    pub fn rules(mut self, rules: impl IntoIterator<Item = Rule>) -> Self {
        self.rules.extend(rules);
        self
    }

    /// Sets a crisp fallback for an output when no rule fires (instead of
    /// an [`FuzzyError::NoRuleFired`] error).
    #[must_use]
    pub fn fallback(mut self, output: impl Into<String>, value: f64) -> Self {
        self.fallbacks.push((output.into().to_ascii_lowercase(), value));
        self
    }

    /// Replaces the whole inference configuration.
    #[must_use]
    pub fn config(mut self, config: InferenceConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the conjunction T-norm.
    #[must_use]
    pub fn tnorm(mut self, tnorm: TNorm) -> Self {
        self.config.tnorm = tnorm;
        self
    }

    /// Sets the disjunction S-norm.
    #[must_use]
    pub fn snorm(mut self, snorm: SNorm) -> Self {
        self.config.snorm = snorm;
        self
    }

    /// Sets the implication operator.
    #[must_use]
    pub fn implication(mut self, implication: Implication) -> Self {
        self.config.implication = implication;
        self
    }

    /// Sets the aggregation operator.
    #[must_use]
    pub fn aggregation(mut self, aggregation: SNorm) -> Self {
        self.config.aggregation = aggregation;
        self
    }

    /// Sets the defuzzification strategy.
    #[must_use]
    pub fn defuzzifier(mut self, defuzzifier: Defuzzifier) -> Self {
        self.config.defuzzifier = defuzzifier;
        self
    }

    /// Sets the defuzzifier sample resolution.
    #[must_use]
    pub fn resolution(mut self, resolution: usize) -> Self {
        self.config.resolution = resolution;
        self
    }

    /// Compiles and validates the engine.
    ///
    /// # Errors
    ///
    /// * [`FuzzyError::DuplicateVariable`] — a name used twice across
    ///   inputs and outputs;
    /// * [`FuzzyError::EmptyRuleBase`] — no rules;
    /// * [`FuzzyError::UnknownVariable`] / [`FuzzyError::UnknownTerm`] — a
    ///   rule references something undeclared;
    /// * [`FuzzyError::InvalidResolution`] — resolution below 2.
    pub fn build(self) -> Result<Engine> {
        if self.config.resolution < 2 {
            return Err(FuzzyError::InvalidResolution { samples: self.config.resolution });
        }
        let mut input_index = HashMap::new();
        for (i, v) in self.inputs.iter().enumerate() {
            if input_index.insert(v.name().to_owned(), i).is_some() {
                return Err(FuzzyError::DuplicateVariable { variable: v.name().to_owned() });
            }
        }
        let mut output_index = HashMap::new();
        for (i, v) in self.outputs.iter().enumerate() {
            if input_index.contains_key(v.name())
                || output_index.insert(v.name().to_owned(), i).is_some()
            {
                return Err(FuzzyError::DuplicateVariable { variable: v.name().to_owned() });
            }
        }
        if self.rules.is_empty() {
            return Err(FuzzyError::EmptyRuleBase);
        }

        let mut compiled = Vec::with_capacity(self.rules.len());
        for rule in self.rules.iter() {
            let mut clauses = Vec::with_capacity(rule.clauses().len());
            for clause in rule.clauses() {
                let input = *input_index.get(clause.variable()).ok_or_else(|| {
                    FuzzyError::UnknownVariable { variable: clause.variable().to_owned() }
                })?;
                let term = self.inputs[input].term_index(clause.term()).ok_or_else(|| {
                    FuzzyError::UnknownTerm {
                        variable: clause.variable().to_owned(),
                        term: clause.term().to_owned(),
                    }
                })?;
                clauses.push(CompiledClause { input, term, negated: clause.negated() });
            }
            let mut consequents = Vec::with_capacity(rule.consequents().len());
            for consequent in rule.consequents() {
                let output = *output_index.get(consequent.variable()).ok_or_else(|| {
                    FuzzyError::UnknownVariable { variable: consequent.variable().to_owned() }
                })?;
                let term = self.outputs[output].term_index(consequent.term()).ok_or_else(|| {
                    FuzzyError::UnknownTerm {
                        variable: consequent.variable().to_owned(),
                        term: consequent.term().to_owned(),
                    }
                })?;
                consequents.push(CompiledConsequent { output, term });
            }
            compiled.push(CompiledRule {
                clauses,
                connective: rule.connective(),
                consequents,
                weight: rule.weight(),
            });
        }

        let mut fallbacks = HashMap::new();
        for (name, value) in self.fallbacks {
            let idx =
                *output_index.get(&name).ok_or(FuzzyError::UnknownVariable { variable: name })?;
            fallbacks.insert(idx, value);
        }

        let mut term_offsets = Vec::with_capacity(self.inputs.len() + 1);
        let mut total_terms = 0;
        for v in &self.inputs {
            term_offsets.push(total_terms);
            total_terms += v.terms().len();
        }
        term_offsets.push(total_terms);

        let resolution = self.config.resolution;
        let term_spans = self
            .outputs
            .iter()
            .map(|var| {
                var.terms()
                    .iter()
                    .map(|t| nonzero_span(t.function(), var.min(), var.max(), resolution))
                    .collect()
            })
            .collect();

        Ok(Engine {
            inputs: self.inputs,
            outputs: self.outputs,
            input_index,
            output_index,
            rule_base: self.rules,
            compiled,
            fallbacks,
            config: self.config,
            term_offsets,
            term_spans,
        })
    }
}

/// The indices of a `samples`-point grid over `[min, max]` outside of
/// which `mf` samples to exactly zero.
///
/// Taken from the shape's closed-form [`MembershipFunction::exact_support`]
/// and widened by one sample on each side, which absorbs the rounding of
/// the bounds and of the grid coordinates. Asymptotic shapes, and
/// universes so far from the origin that rounding approaches the grid
/// step, get the full grid.
fn nonzero_span(mf: &MembershipFunction, min: f64, max: f64, samples: usize) -> Range<usize> {
    let full = 0..samples;
    let Some((lo, hi)) = mf.exact_support() else {
        return full;
    };
    let step = (max - min) / (samples as f64 - 1.0);
    let scale =
        [min, max, lo, hi].iter().filter(|v| v.is_finite()).fold(0.0, |m, v| v.abs().max(m));
    if step <= scale * 1e-12 {
        return full;
    }
    let last = samples - 1;
    let index = |x: f64| ((x - min) / step).clamp(0.0, last as f64);
    let first = (index(lo).floor() as usize).saturating_sub(1);
    let end = (index(hi).ceil() as usize + 1).min(last) + 1;
    first..end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::MembershipFunction;

    fn tri(c: f64, l: f64, r: f64) -> MembershipFunction {
        MembershipFunction::triangular(c, l, r).unwrap()
    }

    fn tipper() -> Engine {
        let service = Variable::builder("service", 0.0, 10.0)
            .term("poor", tri(0.0, 0.0, 5.0))
            .term("good", tri(5.0, 5.0, 5.0))
            .term("excellent", tri(10.0, 5.0, 0.0))
            .build()
            .unwrap();
        let food = Variable::builder("food", 0.0, 10.0)
            .term("rancid", tri(0.0, 0.0, 5.0))
            .term("delicious", tri(10.0, 5.0, 0.0))
            .build()
            .unwrap();
        let tip = Variable::builder("tip", 0.0, 30.0)
            .term("low", tri(5.0, 5.0, 5.0))
            .term("medium", tri(15.0, 5.0, 5.0))
            .term("high", tri(25.0, 5.0, 5.0))
            .build()
            .unwrap();
        Engine::builder()
            .input(service)
            .input(food)
            .output(tip)
            .rule(
                Rule::when("service", "poor")
                    .or("food", "rancid")
                    .then("tip", "low")
                    .build()
                    .unwrap(),
            )
            .rule(Rule::when("service", "good").then("tip", "medium").build().unwrap())
            .rule(
                Rule::when("service", "excellent")
                    .or("food", "delicious")
                    .then("tip", "high")
                    .build()
                    .unwrap(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn tipper_extremes() {
        let engine = tipper();
        let low = engine.evaluate_single(&[("service", 0.0), ("food", 0.0)]).unwrap();
        let high = engine.evaluate_single(&[("service", 10.0), ("food", 10.0)]).unwrap();
        assert!(low < 8.0, "terrible service should tip low, got {low}");
        assert!(high > 22.0, "excellent service should tip high, got {high}");
    }

    #[test]
    fn tipper_midpoint_is_medium() {
        let engine = tipper();
        let mid = engine.evaluate_single(&[("service", 5.0), ("food", 5.0)]).unwrap();
        assert!((mid - 15.0).abs() < 2.0, "mid service should tip ~15, got {mid}");
    }

    #[test]
    fn evaluate_crisp_matches_named_evaluation() {
        let engine = tipper();
        for s in [0.0, 2.5, 5.0, 6.5, 10.0] {
            for f in [0.0, 3.0, 7.0, 10.0] {
                let named = engine.evaluate_single(&[("service", s), ("food", f)]).unwrap();
                let positional = engine.evaluate_crisp(&[s, f]).unwrap();
                assert_eq!(named, positional, "divergence at service={s} food={f}");
            }
        }
    }

    #[test]
    fn evaluate_crisp_reports_arity_errors() {
        let engine = tipper();
        assert_eq!(
            engine.evaluate_crisp(&[5.0]).unwrap_err(),
            FuzzyError::MissingInput { variable: "food".into() }
        );
        assert!(matches!(
            engine.evaluate_crisp(&[5.0, 5.0, 5.0]).unwrap_err(),
            FuzzyError::UnknownVariable { .. }
        ));
        assert!(matches!(
            engine.evaluate_crisp(&[f64::NAN, 5.0]).unwrap_err(),
            FuzzyError::NonFiniteInput { .. }
        ));
    }

    #[test]
    fn evaluate_crisp_clamps_and_falls_back() {
        let engine = tipper();
        assert_eq!(
            engine.evaluate_crisp(&[100.0, 10.0]).unwrap(),
            engine.evaluate_crisp(&[10.0, 10.0]).unwrap()
        );
        let x = Variable::builder("x", 0.0, 10.0).term("left", tri(0.0, 0.0, 2.0)).build().unwrap();
        let y = Variable::builder("y", 0.0, 1.0).term("t", tri(0.5, 0.5, 0.5)).build().unwrap();
        let engine = Engine::builder()
            .input(x)
            .output(y)
            .rule(Rule::when("x", "left").then("y", "t").build().unwrap())
            .fallback("y", 0.25)
            .build()
            .unwrap();
        assert_eq!(engine.evaluate_crisp(&[9.0]).unwrap(), 0.25);
    }

    #[test]
    fn evaluate_crisp_rejects_multi_output() {
        let x = Variable::builder("x", 0.0, 1.0).term("t", tri(0.5, 0.5, 0.5)).build().unwrap();
        let y1 = Variable::builder("y1", 0.0, 1.0).term("t", tri(0.5, 0.5, 0.5)).build().unwrap();
        let y2 = Variable::builder("y2", 0.0, 1.0).term("t", tri(0.5, 0.5, 0.5)).build().unwrap();
        let engine = Engine::builder()
            .input(x)
            .output(y1)
            .output(y2)
            .rule(Rule::when("x", "t").then("y1", "t").then("y2", "t").build().unwrap())
            .build()
            .unwrap();
        assert!(matches!(
            engine.evaluate_crisp(&[0.5]).unwrap_err(),
            FuzzyError::InvalidMembership { .. }
        ));
    }

    #[test]
    fn evaluate_crisp_matches_weighted_average_path() {
        let service = Variable::builder("service", 0.0, 10.0)
            .term("poor", tri(0.0, 0.0, 10.0))
            .term("excellent", tri(10.0, 10.0, 0.0))
            .build()
            .unwrap();
        let tip = Variable::builder("tip", 0.0, 30.0)
            .term("low", tri(5.0, 5.0, 5.0))
            .term("high", tri(25.0, 5.0, 5.0))
            .build()
            .unwrap();
        let engine = Engine::builder()
            .input(service)
            .output(tip)
            .rule(Rule::when("service", "poor").then("tip", "low").build().unwrap())
            .rule(Rule::when("service", "excellent").then("tip", "high").build().unwrap())
            .defuzzifier(Defuzzifier::WeightedAverage)
            .build()
            .unwrap();
        for s in [0.0, 2.0, 5.0, 8.0, 10.0] {
            assert_eq!(
                engine.evaluate_crisp(&[s]).unwrap(),
                engine.evaluate_single(&[("service", s)]).unwrap()
            );
        }
    }

    #[test]
    fn alternating_engines_with_different_universes_stay_correct() {
        // The FLC1 → FLC2 cascade alternates two engines with different
        // output universes on one thread; each must keep its own scratch
        // surface (shape-keyed pool) and produce the same results as
        // when evaluated in isolation.
        let tipper = tipper();
        let x = Variable::builder("x", 0.0, 1.0)
            .term("lo", tri(0.0, 0.0, 1.0))
            .term("hi", tri(1.0, 1.0, 0.0))
            .build()
            .unwrap();
        let y = Variable::builder("y", -1.0, 1.0)
            .term("lo", tri(-1.0, 0.0, 2.0))
            .term("hi", tri(1.0, 2.0, 0.0))
            .build()
            .unwrap();
        let other = Engine::builder()
            .input(x)
            .output(y)
            .rule(Rule::when("x", "lo").then("y", "lo").build().unwrap())
            .rule(Rule::when("x", "hi").then("y", "hi").build().unwrap())
            .build()
            .unwrap();
        let tip_alone = tipper.evaluate_crisp(&[6.5, 4.0]).unwrap();
        let other_alone = other.evaluate_crisp(&[0.3]).unwrap();
        for _ in 0..3 {
            assert_eq!(tipper.evaluate_crisp(&[6.5, 4.0]).unwrap(), tip_alone);
            assert_eq!(other.evaluate_crisp(&[0.3]).unwrap(), other_alone);
        }
    }

    #[test]
    fn input_order_does_not_matter() {
        let engine = tipper();
        let a = engine.evaluate_single(&[("service", 7.0), ("food", 3.0)]).unwrap();
        let b = engine.evaluate_single(&[("food", 3.0), ("service", 7.0)]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn names_are_case_insensitive() {
        let engine = tipper();
        let a = engine.evaluate_single(&[("SERVICE", 7.0), ("Food", 3.0)]).unwrap();
        let b = engine.evaluate_single(&[("service", 7.0), ("food", 3.0)]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn missing_input_is_an_error() {
        let engine = tipper();
        let err = engine.evaluate(&[("service", 5.0)]).unwrap_err();
        assert_eq!(err, FuzzyError::MissingInput { variable: "food".into() });
    }

    #[test]
    fn unknown_input_is_an_error() {
        let engine = tipper();
        let err = engine.evaluate(&[("service", 5.0), ("food", 5.0), ("mood", 5.0)]).unwrap_err();
        assert_eq!(err, FuzzyError::UnknownVariable { variable: "mood".into() });
    }

    #[test]
    fn non_finite_input_is_an_error() {
        let engine = tipper();
        let err = engine.evaluate(&[("service", f64::NAN), ("food", 5.0)]).unwrap_err();
        assert!(matches!(err, FuzzyError::NonFiniteInput { .. }));
    }

    #[test]
    fn out_of_universe_inputs_are_clamped() {
        let engine = tipper();
        let a = engine.evaluate_single(&[("service", 100.0), ("food", 10.0)]).unwrap();
        let b = engine.evaluate_single(&[("service", 10.0), ("food", 10.0)]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn firing_strengths_are_exposed() {
        let engine = tipper();
        let outcome = engine.evaluate(&[("service", 10.0), ("food", 10.0)]).unwrap();
        let firings = outcome.firing_strengths();
        assert_eq!(firings.len(), 3);
        assert_eq!(firings[0], 0.0);
        assert_eq!(firings[2], 1.0);
        assert_eq!(outcome.dominant_rule(), Some((2, 1.0)));
    }

    #[test]
    fn surface_is_available_for_centroid() {
        let engine = tipper();
        let outcome = engine.evaluate(&[("service", 5.0), ("food", 5.0)]).unwrap();
        let out = outcome.output("tip").unwrap();
        assert!(out.surface().is_some());
        assert!(out.surface().unwrap().height() > 0.0);
    }

    #[test]
    fn weighted_average_skips_surface() {
        let service = Variable::builder("service", 0.0, 10.0)
            .term("poor", tri(0.0, 0.0, 10.0))
            .term("excellent", tri(10.0, 10.0, 0.0))
            .build()
            .unwrap();
        let tip = Variable::builder("tip", 0.0, 30.0)
            .term("low", tri(5.0, 5.0, 5.0))
            .term("high", tri(25.0, 5.0, 5.0))
            .build()
            .unwrap();
        let engine = Engine::builder()
            .input(service)
            .output(tip)
            .rule(Rule::when("service", "poor").then("tip", "low").build().unwrap())
            .rule(Rule::when("service", "excellent").then("tip", "high").build().unwrap())
            .defuzzifier(Defuzzifier::WeightedAverage)
            .build()
            .unwrap();
        let outcome = engine.evaluate(&[("service", 5.0)]).unwrap();
        let out = outcome.output("tip").unwrap();
        assert!(out.surface().is_none());
        assert!((out.crisp() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn rule_weight_shifts_output() {
        let make = |weight: f64| {
            let x = Variable::builder("x", 0.0, 1.0)
                .term("any", MembershipFunction::trapezoidal(0.0, 1.0, 0.0, 0.0).unwrap())
                .build()
                .unwrap();
            let y = Variable::builder("y", 0.0, 10.0)
                .term("low", tri(2.0, 2.0, 2.0))
                .term("high", tri(8.0, 2.0, 2.0))
                .build()
                .unwrap();
            Engine::builder()
                .input(x)
                .output(y)
                .rule(Rule::when("x", "any").then("y", "low").build().unwrap())
                .rule(Rule::when("x", "any").then("y", "high").weight(weight).build().unwrap())
                .build()
                .unwrap()
        };
        let balanced = make(1.0).evaluate_single(&[("x", 0.5)]).unwrap();
        let suppressed = make(0.2).evaluate_single(&[("x", 0.5)]).unwrap();
        assert!(suppressed < balanced, "{suppressed} !< {balanced}");
    }

    #[test]
    fn no_rule_fired_without_fallback_errors() {
        let x = Variable::builder("x", 0.0, 10.0).term("left", tri(0.0, 0.0, 2.0)).build().unwrap();
        let y = Variable::builder("y", 0.0, 1.0).term("t", tri(0.5, 0.5, 0.5)).build().unwrap();
        let engine = Engine::builder()
            .input(x)
            .output(y)
            .rule(Rule::when("x", "left").then("y", "t").build().unwrap())
            .build()
            .unwrap();
        let err = engine.evaluate(&[("x", 9.0)]).unwrap_err();
        assert_eq!(err, FuzzyError::NoRuleFired { variable: "y".into() });
    }

    #[test]
    fn fallback_replaces_no_rule_fired() {
        let x = Variable::builder("x", 0.0, 10.0).term("left", tri(0.0, 0.0, 2.0)).build().unwrap();
        let y = Variable::builder("y", 0.0, 1.0).term("t", tri(0.5, 0.5, 0.5)).build().unwrap();
        let engine = Engine::builder()
            .input(x)
            .output(y)
            .rule(Rule::when("x", "left").then("y", "t").build().unwrap())
            .fallback("y", 0.25)
            .build()
            .unwrap();
        assert_eq!(engine.evaluate(&[("x", 9.0)]).unwrap().crisp("y"), Some(0.25));
    }

    #[test]
    fn build_rejects_unknown_rule_references() {
        let x = Variable::builder("x", 0.0, 1.0).term("t", tri(0.5, 0.5, 0.5)).build().unwrap();
        let y = Variable::builder("y", 0.0, 1.0).term("t", tri(0.5, 0.5, 0.5)).build().unwrap();
        // Unknown variable in antecedent.
        let err = Engine::builder()
            .input(x.clone())
            .output(y.clone())
            .rule(Rule::when("z", "t").then("y", "t").build().unwrap())
            .build()
            .unwrap_err();
        assert!(matches!(err, FuzzyError::UnknownVariable { .. }));
        // Unknown term in consequent.
        let err = Engine::builder()
            .input(x)
            .output(y)
            .rule(Rule::when("x", "t").then("y", "missing").build().unwrap())
            .build()
            .unwrap_err();
        assert!(matches!(err, FuzzyError::UnknownTerm { .. }));
    }

    #[test]
    fn build_rejects_duplicate_and_empty() {
        let x = Variable::builder("x", 0.0, 1.0).term("t", tri(0.5, 0.5, 0.5)).build().unwrap();
        let err = Engine::builder().input(x.clone()).input(x.clone()).build().unwrap_err();
        assert!(matches!(err, FuzzyError::DuplicateVariable { .. }));
        let err = Engine::builder().input(x.clone()).output(x.clone()).build().unwrap_err();
        assert!(matches!(err, FuzzyError::DuplicateVariable { .. }));
        let err = Engine::builder().input(x.clone()).build().unwrap_err();
        assert_eq!(err, FuzzyError::EmptyRuleBase);
    }

    #[test]
    fn evaluate_single_rejects_multi_output() {
        let x = Variable::builder("x", 0.0, 1.0).term("t", tri(0.5, 0.5, 0.5)).build().unwrap();
        let y1 = Variable::builder("y1", 0.0, 1.0).term("t", tri(0.5, 0.5, 0.5)).build().unwrap();
        let y2 = Variable::builder("y2", 0.0, 1.0).term("t", tri(0.5, 0.5, 0.5)).build().unwrap();
        let engine = Engine::builder()
            .input(x)
            .output(y1)
            .output(y2)
            .rule(Rule::when("x", "t").then("y1", "t").then("y2", "t").build().unwrap())
            .build()
            .unwrap();
        assert!(engine.evaluate_single(&[("x", 0.5)]).is_err());
        let outcome = engine.evaluate(&[("x", 0.5)]).unwrap();
        assert_eq!(outcome.outputs().len(), 2);
    }

    #[test]
    fn nonzero_span_brackets_every_nonzero_sample() {
        let shapes = [
            tri(0.3, 0.1, 0.25),
            tri(0.0, 0.0, 0.2),
            MembershipFunction::trapezoidal(0.5, 0.6, 0.05, 0.0).unwrap(),
            MembershipFunction::z_shape(0.1, 0.3).unwrap(),
            MembershipFunction::s_shape(0.7, 0.9).unwrap(),
            MembershipFunction::singleton(0.5).unwrap(),
            MembershipFunction::gaussian(0.5, 0.01).unwrap(),
        ];
        for (min, max) in [(0.0, 1.0), (-0.2, 0.9)] {
            for samples in [2, 3, 101, 501] {
                let step = (max - min) / (samples as f64 - 1.0);
                for mf in shapes {
                    let span = nonzero_span(&mf, min, max, samples);
                    assert!(span.end <= samples, "{mf:?} {span:?}");
                    for i in (0..samples).filter(|i| !span.contains(i)) {
                        let x = min + step * i as f64;
                        assert_eq!(mf.evaluate(x), 0.0, "{mf:?} sample {i} outside {span:?}");
                    }
                }
            }
        }
        // Bounded shapes skip most of a fine grid (this triangle is
        // nonzero on samples 101..=199) ...
        assert_eq!(nonzero_span(&tri(0.3, 0.1, 0.1), 0.0, 1.0, 501), 98..202);
        assert_eq!(
            nonzero_span(&MembershipFunction::singleton(0.5).unwrap(), 0.0, 1.0, 501),
            249..252
        );
        // ... asymptotic ones, and universes whose rounding rivals the
        // grid step, keep the full grid.
        let gaussian = MembershipFunction::gaussian(0.5, 0.01).unwrap();
        assert_eq!(nonzero_span(&gaussian, 0.0, 1.0, 501), 0..501);
        assert_eq!(nonzero_span(&tri(1e17, 1.0, 1.0), 1e17 - 50.0, 1e17 + 50.0, 501), 0..501);
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
    }

    #[test]
    fn product_implication_gives_smoother_surface() {
        let engine_min = tipper();
        let mut config = *engine_min.config();
        config.implication = Implication::Product;
        // Rebuild with product implication.
        let engine_prod = Engine::builder()
            .input(engine_min.inputs()[0].clone())
            .input(engine_min.inputs()[1].clone())
            .output(engine_min.outputs()[0].clone())
            .rules(engine_min.rule_base().clone())
            .config(config)
            .build()
            .unwrap();
        let a = engine_min.evaluate_single(&[("service", 6.5), ("food", 4.0)]).unwrap();
        let b = engine_prod.evaluate_single(&[("service", 6.5), ("food", 4.0)]).unwrap();
        // Same ballpark, different operator: both sane tips.
        assert!((a - b).abs() < 5.0);
        assert!(a > 5.0 && a < 25.0 && b > 5.0 && b < 25.0);
    }
}
