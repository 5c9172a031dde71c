//! Bit-identity of the exact Mamdani engine against a reference of the
//! plain algorithm: fire every rule, merge each firing rule's implied
//! consequent over the whole aggregation grid in rule order, then take the
//! centroid over every strip of the grid.
//!
//! The engine folds strengths per term, merges each term only over its
//! nonzero samples and skips empty strips; all three are exact, so every
//! crisp output here must match the reference to the bit.

use facs::{Flc1, Flc2};
use facs_fuzzy::{
    Connective, Defuzzifier, Engine, FuzzyError, Implication, InferenceConfig, MembershipFunction,
    Rule, SNorm, SampledSet, TNorm, Variable, DEFAULT_RESOLUTION,
};
use proptest::prelude::*;

const TNORMS: [TNorm; 4] = [TNorm::Minimum, TNorm::Product, TNorm::Lukasiewicz, TNorm::Drastic];
const SNORMS: [SNorm; 4] =
    [SNorm::Maximum, SNorm::ProbabilisticSum, SNorm::BoundedSum, SNorm::Drastic];
const IMPLICATIONS: [Implication; 2] = [Implication::Minimum, Implication::Product];
const DEFUZZIFIERS: [Defuzzifier; 6] = [
    Defuzzifier::Centroid,
    Defuzzifier::Bisector,
    Defuzzifier::MeanOfMaxima,
    Defuzzifier::SmallestOfMaxima,
    Defuzzifier::LargestOfMaxima,
    Defuzzifier::WeightedAverage,
];

/// Centroid summed over every strip, empty or not.
fn reference_centroid(set: &SampledSet) -> Option<f64> {
    let values = set.values();
    let step = (set.max() - set.min()) / (values.len() as f64 - 1.0);
    let mut area = 0.0;
    let mut moment = 0.0;
    for (i, w) in values.windows(2).enumerate() {
        let x0 = set.min() + step * i as f64;
        let x1 = x0 + step;
        let a = 0.5 * (w[0] + w[1]) * step;
        let cx = if w[0] + w[1] > 0.0 {
            (x0 * (2.0 * w[0] + w[1]) + x1 * (w[0] + 2.0 * w[1])) / (3.0 * (w[0] + w[1]))
        } else {
            0.5 * (x0 + x1)
        };
        area += a;
        moment += a * cx;
    }
    if area <= f64::EPSILON {
        None
    } else {
        Some((moment / area).clamp(set.min(), set.max()))
    }
}

/// Firing strength of every rule of `engine` for positional `readings`.
fn reference_firings(engine: &Engine, readings: &[f64]) -> Vec<f64> {
    let config = engine.config();
    engine
        .rule_base()
        .iter()
        .map(|rule| {
            let mut degrees = rule.clauses().iter().map(|clause| {
                let idx = engine
                    .inputs()
                    .iter()
                    .position(|v| v.name() == clause.variable())
                    .expect("clause names an input");
                let var = &engine.inputs()[idx];
                let term = var.term(clause.term()).expect("known term");
                let mu = term.membership(var.clamp(readings[idx]));
                if clause.negated() {
                    1.0 - mu
                } else {
                    mu
                }
            });
            let strength = match rule.connective() {
                Connective::And => {
                    let first = degrees.next().unwrap_or(1.0);
                    degrees.fold(first, |acc, d| config.tnorm.apply(acc, d))
                }
                Connective::Or => {
                    let first = degrees.next().unwrap_or(0.0);
                    degrees.fold(first, |acc, d| config.snorm.apply(acc, d))
                }
            };
            strength * rule.weight()
        })
        .collect()
}

/// The single output's crisp value and (for area-based defuzzifiers) its
/// aggregated surface, computed the plain way.
fn reference_output(
    engine: &Engine,
    readings: &[f64],
    fallback: Option<f64>,
) -> Result<(f64, Option<SampledSet>), FuzzyError> {
    let config = engine.config();
    let var = &engine.outputs()[0];
    let no_rule_fired = || match fallback {
        Some(value) => Ok(value),
        None => Err(FuzzyError::NoRuleFired { variable: var.name().to_owned() }),
    };
    let fired: Vec<(f64, &MembershipFunction)> = engine
        .rule_base()
        .iter()
        .zip(reference_firings(engine, readings))
        .filter(|&(_, strength)| strength > 0.0)
        .flat_map(|(rule, strength)| {
            rule.consequents()
                .iter()
                .filter(|c| c.variable() == var.name())
                .map(move |c| (strength, var.term(c.term()).expect("known term").function()))
        })
        .collect();
    if !config.defuzzifier.needs_surface() {
        let activations: Vec<(f64, f64)> =
            fired.iter().map(|&(strength, mf)| (strength, mf.representative())).collect();
        let crisp = match config.defuzzifier.crisp_from_activations(&activations) {
            Ok(crisp) => crisp.clamp(var.min(), var.max()),
            Err(_) => no_rule_fired()?,
        };
        return Ok((crisp, None));
    }
    let samples = config.resolution;
    let mut surface = SampledSet::empty(var.min(), var.max(), samples)?;
    for &(strength, mf) in &fired {
        surface.merge_from_fn(
            0..samples,
            |x| config.implication.apply(strength, mf.evaluate(x)),
            |a, b| config.aggregation.apply(a, b),
        );
    }
    if fired.is_empty() {
        return Ok((no_rule_fired()?, Some(surface)));
    }
    let crisp = match config.defuzzifier {
        Defuzzifier::Centroid => reference_centroid(&surface),
        other => other.crisp(&surface).ok(),
    };
    match crisp {
        Some(crisp) => Ok((crisp, Some(surface))),
        None => Err(FuzzyError::NoRuleFired { variable: var.name().to_owned() }),
    }
}

/// Checks both engine entry points against the reference, bit for bit.
fn assert_matches_reference(engine: &Engine, readings: &[f64], fallback: Option<f64>) {
    let context = || format!("readings {readings:?}, config {:?}", engine.config());
    let reference = reference_output(engine, readings, fallback);
    let crisp = engine.evaluate_crisp(readings);
    let named: Vec<(&str, f64)> =
        engine.inputs().iter().map(|v| v.name()).zip(readings.iter().copied()).collect();
    let outcome = engine.evaluate(&named);
    match reference {
        Ok((expected, surface)) => {
            let crisp = crisp.unwrap_or_else(|e| panic!("{e} at {}", context()));
            assert_eq!(
                crisp.to_bits(),
                expected.to_bits(),
                "{crisp} != {expected} at {}",
                context()
            );
            let outcome = outcome.unwrap_or_else(|e| panic!("{e} at {}", context()));
            let out = &outcome.outputs()[0];
            assert_eq!(out.crisp().to_bits(), expected.to_bits(), "named path at {}", context());
            let bits = |s: Option<&SampledSet>| {
                s.map(|s| s.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
            };
            assert_eq!(bits(out.surface()), bits(surface.as_ref()), "surface at {}", context());
        }
        Err(expected) => {
            assert_eq!(crisp.unwrap_err(), expected, "at {}", context());
            assert_eq!(outcome.unwrap_err(), expected, "named path at {}", context());
        }
    }
}

fn tri(center: f64, left: f64, right: f64) -> MembershipFunction {
    MembershipFunction::triangular(center, left, right).unwrap()
}

/// An output variable with one term of every membership shape. The
/// singleton sits exactly on a grid sample of `resolution` points, so it
/// does carry mass.
fn every_shape_output(resolution: usize) -> Variable {
    let (min, max) = (-2.0, 3.0);
    let on_grid = min + (max - min) / (resolution as f64 - 1.0) * (resolution / 3) as f64;
    Variable::builder("z", min, max)
        .term("tri", tri(-1.0, 0.5, 0.75))
        .term("trap", MembershipFunction::trapezoidal(-0.25, 0.5, 0.3, 0.0).unwrap())
        .term("gauss", MembershipFunction::gaussian(1.0, 0.4).unwrap())
        .term("bell", MembershipFunction::bell(2.0, 0.5, 2.0).unwrap())
        .term("sig_up", MembershipFunction::sigmoid(2.5, 8.0).unwrap())
        .term("sig_down", MembershipFunction::sigmoid(-1.5, -6.0).unwrap())
        .term("zed", MembershipFunction::z_shape(-2.0, -1.2).unwrap())
        .term("ess", MembershipFunction::s_shape(2.2, 2.9).unwrap())
        .term("spike", MembershipFunction::singleton(on_grid).unwrap())
        .build()
        .unwrap()
}

/// A two-input engine over [`every_shape_output`] whose rules mix AND and
/// OR, negated clauses, fractional weights, and several rules per term.
fn every_shape_engine(config: InferenceConfig, fallback: Option<f64>) -> Engine {
    let x = Variable::builder("x", 0.0, 10.0)
        .term("lo", tri(0.0, 0.0, 6.0))
        .term("mid", tri(5.0, 3.0, 3.0))
        .term("hi", MembershipFunction::trapezoidal(7.0, 10.0, 3.0, 0.0).unwrap())
        .build()
        .unwrap();
    let y = Variable::builder("y", -5.0, 5.0)
        .term("neg", MembershipFunction::gaussian(-5.0, 3.0).unwrap())
        .term("pos", tri(5.0, 8.0, 0.0))
        .build()
        .unwrap();
    let rules = [
        Rule::when("x", "lo").and("y", "neg").then("z", "tri").build(),
        Rule::when("x", "lo").or("y", "pos").then("z", "tri").weight(0.6).build(),
        Rule::when("x", "mid").then("z", "trap").build(),
        Rule::when("x", "mid").and_not("y", "pos").then("z", "gauss").weight(0.35).build(),
        Rule::when_not("x", "hi").and("y", "pos").then("z", "bell").build(),
        Rule::when("x", "hi").or_not("y", "neg").then("z", "sig_up").weight(0.8).build(),
        Rule::when("x", "lo").then("z", "sig_down").weight(0.5).build(),
        Rule::when("y", "neg").then("z", "zed").weight(0.9).build(),
        Rule::when("x", "hi").and("y", "pos").then("z", "ess").build(),
        Rule::when("x", "mid").or("y", "neg").then("z", "spike").weight(0.7).build(),
        Rule::when("x", "hi").then("z", "tri").weight(0.25).build(),
    ];
    let mut builder = Engine::builder()
        .input(x)
        .input(y)
        .output(every_shape_output(config.resolution))
        .rules(rules.into_iter().map(Result::unwrap))
        .config(config);
    if let Some(value) = fallback {
        builder = builder.fallback("z", value);
    }
    builder.build().unwrap()
}

#[test]
fn every_operator_combination_matches_reference() {
    for tnorm in TNORMS {
        for snorm in SNORMS {
            for implication in IMPLICATIONS {
                for aggregation in SNORMS {
                    for defuzzifier in DEFUZZIFIERS {
                        let config = InferenceConfig {
                            tnorm,
                            snorm,
                            implication,
                            aggregation,
                            defuzzifier,
                            resolution: 101,
                        };
                        let engine = every_shape_engine(config, None);
                        for x in [0.0, 2.5, 5.0, 8.5, 10.0] {
                            for y in [-5.0, -1.0, 2.0, 5.0] {
                                assert_matches_reference(&engine, &[x, y], None);
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn no_rule_fired_and_fallback_match_reference() {
    // Only "x is left" fires anything, and only for x < 2.
    let x = Variable::builder("x", 0.0, 10.0).term("left", tri(0.0, 0.0, 2.0)).build().unwrap();
    for defuzzifier in DEFUZZIFIERS {
        for fallback in [None, Some(0.25)] {
            let y = Variable::builder("y", 0.0, 1.0).term("t", tri(0.5, 0.5, 0.5)).build().unwrap();
            let mut builder = Engine::builder()
                .input(x.clone())
                .output(y)
                .rule(Rule::when("x", "left").then("y", "t").build().unwrap())
                .defuzzifier(defuzzifier);
            if let Some(value) = fallback {
                builder = builder.fallback("y", value);
            }
            let engine = builder.build().unwrap();
            for reading in [0.0, 1.0, 2.0, 9.0] {
                assert_matches_reference(&engine, &[reading], fallback);
            }
        }
    }
    // The fallback also covers the every-shape engine's dead corners.
    let config = InferenceConfig { aggregation: SNorm::ProbabilisticSum, ..Default::default() };
    assert_matches_reference(&every_shape_engine(config, Some(-0.5)), &[10.0, -5.0], Some(-0.5));
}

/// `steps`-point grid over `[min, max]`, end points included.
fn axis(min: f64, max: f64, steps: usize) -> Vec<f64> {
    (0..steps).map(|i| min + (max - min) * i as f64 / (steps - 1) as f64).collect()
}

fn assert_sub_lattice_matches(engine: &Engine) {
    let axes: Vec<Vec<f64>> = engine.inputs().iter().map(|v| axis(v.min(), v.max(), 9)).collect();
    assert_eq!(axes.len(), 3);
    for &a in &axes[0] {
        for &b in &axes[1] {
            for &c in &axes[2] {
                assert_matches_reference(engine, &[a, b, c], None);
            }
        }
    }
}

#[test]
fn paper_flc1_matches_reference_on_a_sub_lattice() {
    let flc1 = Flc1::new().unwrap();
    assert_eq!(flc1.engine().config().resolution, DEFAULT_RESOLUTION);
    assert_sub_lattice_matches(flc1.engine());
}

#[test]
fn paper_flc2_matches_reference_at_default_and_tuned_weights() {
    assert_sub_lattice_matches(Flc2::new().unwrap().engine());
    // The online tuner scales the accept-leaning rules by g in [0.5, 1].
    let default = Flc2::new().unwrap();
    for scale in [0.5, 0.75] {
        let mut weights = [1.0; 27];
        for (weight, rule) in weights.iter_mut().zip(default.engine().rule_base().iter()) {
            if matches!(rule.consequents()[0].term(), "a" | "wa") {
                *weight = scale;
            }
        }
        let tuned = Flc2::with_weights(InferenceConfig::default(), &weights).unwrap();
        assert_sub_lattice_matches(tuned.engine());
    }
}

/// Any membership shape, with parameters roughly inside `[-3, 3]`.
fn arb_shape() -> impl Strategy<Value = MembershipFunction> {
    (0usize..8, -3.0f64..3.0, 0.0f64..2.0, 0.0f64..2.0, any::<bool>()).prop_map(
        |(kind, at, a, b, flip)| {
            let width = a + 0.05;
            match kind {
                0 => tri(at, a, b + 0.01),
                1 => MembershipFunction::trapezoidal(at, at + a, b, width).unwrap(),
                2 => MembershipFunction::gaussian(at, width).unwrap(),
                3 => MembershipFunction::bell(at, width, b + 0.5).unwrap(),
                4 => {
                    let slope = (b + 0.5) * 4.0;
                    MembershipFunction::sigmoid(at, if flip { -slope } else { slope }).unwrap()
                }
                5 => MembershipFunction::z_shape(at, at + width).unwrap(),
                6 => MembershipFunction::s_shape(at, at + width).unwrap(),
                _ => MembershipFunction::singleton(at).unwrap(),
            }
        },
    )
}

/// One rule over inputs `p`/`q` (two terms each) firing output term
/// `term`: `(term, connective is OR, p negated, q negated, weight)`.
type RuleSpec = (usize, bool, bool, bool, f64);

fn arb_rule(terms: usize) -> impl Strategy<Value = RuleSpec> {
    (0..terms, any::<bool>(), any::<bool>(), any::<bool>(), 0.0f64..1.0)
        .prop_map(|(term, or, p_not, q_not, w)| (term, or, p_not, q_not, 1.0 - w))
}

proptest! {
    /// Random shapes, universes, rules, weights and operators.
    #[test]
    fn random_engines_match_reference(
        shapes in prop::collection::vec(arb_shape(), 1..6),
        rule_picks in prop::collection::vec(arb_rule(6), 1..10),
        ops in (0usize..4, 0usize..4, 0usize..2, 0usize..4, 0usize..6),
        universe in (-4.0f64..0.0, 0.5f64..6.0),
        resolution in 2usize..260,
        readings in (0.0f64..1.0, -1.0f64..1.0),
        fallback in prop::sample::select(vec![None, Some(0.0)]),
    ) {
        let (tnorm, snorm, implication, aggregation, defuzzifier) = ops;
        let config = InferenceConfig {
            tnorm: TNORMS[tnorm],
            snorm: SNORMS[snorm],
            implication: IMPLICATIONS[implication],
            aggregation: SNORMS[aggregation],
            defuzzifier: DEFUZZIFIERS[defuzzifier],
            resolution,
        };
        let (min, span) = universe;
        let mut out = Variable::builder("out", min, min + span);
        for (i, &shape) in shapes.iter().enumerate() {
            out = out.term(format!("t{i}"), shape);
        }
        let p = Variable::builder("p", 0.0, 1.0)
            .term("lo", tri(0.0, 0.0, 0.7))
            .term("hi", tri(1.0, 0.6, 0.0))
            .build()
            .unwrap();
        let q = Variable::builder("q", -1.0, 1.0)
            .term("lo", MembershipFunction::z_shape(-0.8, 0.4).unwrap())
            .term("hi", MembershipFunction::gaussian(0.8, 0.3).unwrap())
            .build()
            .unwrap();
        let rules = rule_picks.iter().enumerate().map(|(i, &(term, or, p_not, q_not, weight))| {
            let first = if p_not { Rule::when_not("p", ["lo", "hi"][i % 2]) } else {
                Rule::when("p", ["lo", "hi"][i % 2])
            };
            let q_term = ["hi", "lo"][(i / 2) % 2];
            let both = match (or, q_not) {
                (false, false) => first.and("q", q_term),
                (false, true) => first.and_not("q", q_term),
                (true, false) => first.or("q", q_term),
                (true, true) => first.or_not("q", q_term),
            };
            both.then("out", format!("t{}", term % shapes.len())).weight(weight).build().unwrap()
        });
        let mut builder = Engine::builder()
            .input(p)
            .input(q)
            .output(out.build().unwrap())
            .rules(rules)
            .config(config);
        let fallback = fallback.map(|_| min + 0.5 * span);
        if let Some(value) = fallback {
            builder = builder.fallback("out", value);
        }
        let engine = builder.build().unwrap();
        assert_matches_reference(&engine, &[readings.0, readings.1], fallback);
    }
}
