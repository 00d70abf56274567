//! Additive-schema checks shared by the golden suites: a new schema
//! may add fields to a committed document but never drop or change one.

use serde::Value;
use std::path::Path;

/// Reads a checked-in golden back as a JSON object.
pub fn golden_object(name: &str) -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/goldens/{name}.json"));
    let text = std::fs::read_to_string(path).expect("golden fixture");
    parse_object(&text)
}

pub fn parse_object(text: &str) -> Value {
    let value = serde_json::from_str(text).expect("golden parses");
    assert!(value.as_object().is_some(), "golden is not an object");
    value
}

/// The keys `current` has and `legacy` lacks, in document order.
pub fn added_keys<'a>(legacy: &Value, current: &'a Value) -> Vec<&'a str> {
    let fields = current.as_object().expect("an object");
    let keys = fields.iter().map(|(k, _)| k.as_str());
    keys.filter(|k| legacy.get(k).is_none()).collect()
}

/// Recursive *additive* schema comparison: every field the legacy
/// value has must exist in the current value with an additively-equal
/// value (objects may gain fields at any depth — e.g. `stages` gained
/// `store_read` with the flight recorder — but may never lose or
/// change one). Integers compare exactly; floats compare as the `f64`
/// the deterministic writer round-trips.
pub fn assert_additive(legacy: &Value, current: &Value, path: &str) {
    match legacy.as_object() {
        Some(old) if current.as_object().is_some() => {
            for (key, old_value) in old {
                let new_value = current
                    .get(key)
                    .unwrap_or_else(|| panic!("new schema dropped `{path}.{key}`"));
                assert_additive(old_value, new_value, &format!("{path}.{key}"));
            }
        }
        _ => assert_eq!(current, legacy, "value of `{path}` changed"),
    }
}
