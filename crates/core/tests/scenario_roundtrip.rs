//! Property-based coverage of the declarative scenario API: arbitrary
//! valid `ScenarioSpec`s survive a JSON round trip (single object and
//! versioned document) bit-for-bit, and malformed scenario files are
//! rejected with typed errors, never garbage specs.

use codesign_core::{
    scenarios_from_document, scenarios_to_document, MetricId, ScenarioError, ScenarioSpec,
};
use codesign_moo::Punishment;
use codesign_nasbench::Json;
use proptest::prelude::*;

/// Raw per-metric draw: `(include, weight, norm_lo, norm_span, constrain,
/// threshold)`. Always mapped into a *valid* objective, so every generated
/// spec builds.
type RawObjective = (bool, f64, f64, f64, bool, f64);

fn raw_objective() -> impl Strategy<Value = RawObjective> {
    (
        prop::bool::ANY,
        (0.0f64..5.0),
        (0.1f64..500.0),
        (0.5f64..400.0),
        prop::bool::ANY,
        (0.1f64..600.0),
    )
}

fn punishment() -> impl Strategy<Value = Punishment> {
    ((0.01f64..2.0), prop::bool::ANY).prop_map(|(magnitude, constant)| {
        if constant {
            Punishment::Constant(magnitude)
        } else {
            Punishment::ScaledViolation { scale: magnitude }
        }
    })
}

/// Builds a valid spec from raw draws: the first metric is always included
/// with a strictly positive weight, so validation always passes.
fn build_spec(raws: [RawObjective; 5], punish: Punishment) -> ScenarioSpec {
    let mut builder = ScenarioSpec::builder("generated").punishment(punish);
    for (i, (include, weight, lo, span, constrain, threshold)) in raws.into_iter().enumerate() {
        let metric = MetricId::ALL[i];
        let forced = i == 0;
        if !include && !forced {
            continue;
        }
        let weight = if forced { weight.max(0.125) } else { weight };
        builder = builder.weight(metric, weight).norm(metric, lo, lo + span);
        if constrain {
            builder = builder.constraint(metric, threshold);
        }
    }
    builder.build().expect("raw draws are mapped into validity")
}

proptest! {
    #[test]
    fn json_roundtrip_is_lossless(
        raws in [raw_objective(), raw_objective(), raw_objective(),
                 raw_objective(), raw_objective()],
        punish in punishment(),
    ) {
        let spec = build_spec(raws, punish);

        // Object-level: through the in-memory Json value.
        let back = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        prop_assert_eq!(&back, &spec);

        // Document-level: through actual serialized text, like a
        // --scenarios-file on disk.
        let doc = scenarios_to_document(std::slice::from_ref(&spec));
        let reparsed = Json::parse(&doc.to_string()).unwrap();
        let specs = scenarios_from_document(&reparsed).unwrap();
        prop_assert_eq!(specs.len(), 1);
        prop_assert_eq!(&specs[0], &spec);

        // Round-tripping changes nothing observable: both compile to the
        // same scenario.
        prop_assert_eq!(specs[0].compile(), spec.compile());
    }

    #[test]
    fn serialization_is_deterministic(
        raws in [raw_objective(), raw_objective(), raw_objective(),
                 raw_objective(), raw_objective()],
        punish in punishment(),
    ) {
        let spec = build_spec(raws, punish);
        let a = scenarios_to_document(std::slice::from_ref(&spec)).to_string();
        let b = scenarios_to_document(std::slice::from_ref(&spec)).to_string();
        prop_assert_eq!(a, b);
    }
}

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("codesign_scenario_files");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path
}

#[test]
fn files_with_bad_versions_are_rejected() {
    let path = write_temp(
        "bad_version.json",
        r#"{"format":"codesign-scenarios","version":99,"scenarios":[]}"#,
    );
    assert_eq!(
        ScenarioSpec::load_file(&path),
        Err(ScenarioError::WrongVersion { found: 99 })
    );
}

#[test]
fn files_with_wrong_formats_are_rejected() {
    let path = write_temp(
        "wrong_format.json",
        r#"{"format":"codesign-eval-cache","version":1,"scenarios":[]}"#,
    );
    assert_eq!(
        ScenarioSpec::load_file(&path),
        Err(ScenarioError::WrongFormat {
            found: "codesign-eval-cache".into()
        })
    );
}

#[test]
fn files_with_unknown_metrics_are_rejected() {
    let path = write_temp(
        "unknown_metric.json",
        r#"{"format":"codesign-scenarios","version":1,"scenarios":[
            {"name":"x","objectives":[{"metric":"throughput","weight":1}]}]}"#,
    );
    assert_eq!(
        ScenarioSpec::load_file(&path),
        Err(ScenarioError::UnknownMetric {
            name: "throughput".into()
        })
    );
}

#[test]
fn files_with_non_numeric_weights_are_rejected() {
    // JSON cannot carry NaN; a null weight is the on-disk analogue and must
    // be a structural error, not a silently-defaulted value. (NaN itself is
    // rejected by the builder — covered in the scenarios unit tests.)
    let path = write_temp(
        "nan_weight.json",
        r#"{"format":"codesign-scenarios","version":1,"scenarios":[
            {"name":"x","objectives":[{"metric":"acc","weight":null}]}]}"#,
    );
    assert!(matches!(
        ScenarioSpec::load_file(&path),
        Err(ScenarioError::Malformed(_))
    ));
}

#[test]
fn files_with_invalid_norms_are_rejected_via_builder_validation() {
    let path = write_temp(
        "degenerate_norm.json",
        r#"{"format":"codesign-scenarios","version":1,"scenarios":[
            {"name":"x","objectives":[{"metric":"acc","weight":1,"norm":[0.9,0.9]}]}]}"#,
    );
    assert!(matches!(
        ScenarioSpec::load_file(&path),
        Err(ScenarioError::InvalidNorm { .. })
    ));
}

#[test]
fn files_with_duplicate_scenario_names_are_rejected() {
    // Reports and merged fronts key on scenario names; a collection with
    // a repeated name must be rejected up front, not silently pooled
    // downstream.
    let path = write_temp(
        "duplicate_names.json",
        r#"{"format":"codesign-scenarios","version":1,"scenarios":[
            {"name":"twin","objectives":[{"metric":"acc","weight":1}]},
            {"name":"twin","objectives":[{"metric":"lat","weight":1}]}]}"#,
    );
    assert_eq!(
        ScenarioSpec::load_file(&path),
        Err(ScenarioError::DuplicateName {
            name: "twin".into()
        })
    );
    // The same check is available standalone for caller-assembled lists.
    let mut specs = ScenarioSpec::paper_presets();
    assert_eq!(codesign_core::check_unique_names(&specs), Ok(()));
    specs.push(ScenarioSpec::unconstrained());
    assert!(matches!(
        codesign_core::check_unique_names(&specs),
        Err(ScenarioError::DuplicateName { .. })
    ));
}

#[test]
fn missing_files_surface_io_errors() {
    assert!(matches!(
        ScenarioSpec::load_file("/nonexistent/scenarios.json"),
        Err(ScenarioError::Io(_))
    ));
}

#[test]
fn truncated_files_error_cleanly() {
    let full = scenarios_to_document(&ScenarioSpec::paper_presets()).to_string();
    for cut in [1, full.len() / 3, full.len() - 2] {
        let path = write_temp("truncated.json", &full[..cut]);
        let err = ScenarioSpec::load_file(&path).unwrap_err();
        assert!(
            matches!(err, ScenarioError::Malformed(_)),
            "cut at {cut} gave {err:?}"
        );
        let _ = err.to_string(); // printable, never a panic
    }
}
