//! A small, dependency-free JSON module: an owned [`Json`] value, a
//! recursive-descent parser, compact and pretty writers, and the
//! [`ToJson`]/[`FromJson`] traits the rest of the workspace implements
//! for its serialized types.
//!
//! The module exists so the workspace builds hermetically offline: it
//! replaces `serde`/`serde_json` for the handful of types that are
//! actually persisted (datasets, eval reports, exchange logs, flat
//! taxonomies). The encodings mirror the former derive output — unit
//! enum variants as strings (`"Easy"`, [`unit_enum_json!`]),
//! data-carrying variants as single-key objects (`{"Option":2}`),
//! structs as objects in field order ([`struct_json!`]) — so readers of
//! previously written files keep working.
//!
//! Numbers preserve integer exactness: integers round-trip through
//! [`Json::U64`]/[`Json::I64`] (never through `f64`), which matters for
//! the 48-bit question-id scheme.

use std::error::Error;
use std::fmt;

mod parse;
mod write;

pub use parse::from_str_value;

/// Maximum nesting depth the parser accepts (arrays + objects).
pub const MAX_DEPTH: usize = 128;

/// An owned JSON document.
///
/// Object fields keep insertion order, so writing is deterministic:
/// the same value always renders to the same bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A negative integer (positive integers parse as [`Json::U64`]).
    I64(i64),
    /// A non-negative integer.
    U64(u64),
    /// A number with a fraction or exponent.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(name, value)` pairs.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            Json::I64(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::I64(n) => Some(*n),
            Json::U64(n) => i64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is any kind of number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(x) => Some(*x),
            Json::U64(n) => Some(*n as f64),
            Json::I64(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Look up a field of an object (`None` for non-objects or missing
    /// keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|fields| {
            fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
        })
    }

    /// Look up a required field, with a descriptive error on miss.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::msg(format!("missing field `{key}`")))
    }

    /// Decode a required field into `T`.
    pub fn field_as<T: FromJson>(&self, key: &str) -> Result<T, JsonError> {
        T::from_json(self.field(key)?)
            .map_err(|e| JsonError::msg(format!("field `{key}`: {e}")))
    }

    /// A short name for the value's type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::I64(_) | Json::U64(_) | Json::F64(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Render compactly (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        write::write_compact(self, &mut out);
        out
    }

    /// Render with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        write::write_pretty(self, 0, &mut out);
        out
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// A parse or decode error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    message: String,
    /// Byte offset into the input, for parse errors.
    offset: Option<usize>,
}

impl JsonError {
    /// A decode (shape-mismatch) error with no input position.
    pub fn msg(message: impl Into<String>) -> JsonError {
        JsonError { message: message.into(), offset: None }
    }

    /// A parse error at a byte offset.
    pub fn at(message: impl Into<String>, offset: usize) -> JsonError {
        JsonError { message: message.into(), offset: Some(offset) }
    }

    /// The expected/actual mismatch error used by `FromJson` impls.
    pub fn mismatch(expected: &str, got: &Json) -> JsonError {
        JsonError::msg(format!("expected {expected}, got {}", got.type_name()))
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(offset) => write!(f, "{} at byte {offset}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl Error for JsonError {}

/// Types that render to a [`Json`] value.
pub trait ToJson {
    /// Convert to a JSON value.
    fn to_json(&self) -> Json;
}

/// Types that decode from a [`Json`] value.
pub trait FromJson: Sized {
    /// Decode from a JSON value.
    fn from_json(json: &Json) -> Result<Self, JsonError>;
}

/// Serialize to a compact JSON string.
///
/// Infallible for every type in this workspace; the `Result` mirrors
/// the `serde_json::to_string` call shape so call sites read the same.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> Result<String, JsonError> {
    Ok(value.to_json().render())
}

/// Serialize to a pretty (two-space-indented) JSON string.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> Result<String, JsonError> {
    Ok(value.to_json().render_pretty())
}

/// Parse a JSON string and decode it into `T`.
pub fn from_str<T: FromJson>(input: &str) -> Result<T, JsonError> {
    T::from_json(&from_str_value(input)?)
}

// ---------------------------------------------------------------------
// ToJson / FromJson for primitives and containers.
// ---------------------------------------------------------------------

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(json.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_bool().ok_or_else(|| JsonError::mismatch("bool", json))
    }
}

macro_rules! unsigned_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::U64(*self as u64)
            }
        }
        impl FromJson for $t {
            fn from_json(json: &Json) -> Result<Self, JsonError> {
                let n = json.as_u64().ok_or_else(|| JsonError::mismatch("unsigned integer", json))?;
                <$t>::try_from(n).map_err(|_| JsonError::msg(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

unsigned_json!(u8, u16, u32, u64, usize);

macro_rules! signed_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                let n = *self as i64;
                if n >= 0 { Json::U64(n as u64) } else { Json::I64(n) }
            }
        }
        impl FromJson for $t {
            fn from_json(json: &Json) -> Result<Self, JsonError> {
                let n = json.as_i64().ok_or_else(|| JsonError::mismatch("integer", json))?;
                <$t>::try_from(n).map_err(|_| JsonError::msg(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

signed_json!(i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

impl FromJson for f64 {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_f64().ok_or_else(|| JsonError::mismatch("number", json))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_owned())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_str().map(str::to_owned).ok_or_else(|| JsonError::mismatch("string", json))
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_arr()
            .ok_or_else(|| JsonError::mismatch("array", json))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let items: Vec<T> = Vec::from_json(json)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| JsonError::msg(format!("expected array of {N} elements, got {len}")))
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(value) => value.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

/// Implement [`ToJson`]/[`FromJson`] for an enum of unit variants,
/// encoding each variant as its name string — the same wire format the
/// former serde derives produced (`QuestionDataset::Easy` ⇄ `"Easy"`).
#[macro_export]
macro_rules! unit_enum_json {
    ($ty:ty { $($variant:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                let name = match self {
                    $(<$ty>::$variant => stringify!($variant),)+
                };
                $crate::Json::Str(name.to_owned())
            }
        }

        impl $crate::FromJson for $ty {
            fn from_json(json: &$crate::Json) -> Result<Self, $crate::JsonError> {
                let name = json
                    .as_str()
                    .ok_or_else(|| $crate::JsonError::mismatch("string", json))?;
                $(
                    if name == stringify!($variant) {
                        return Ok(<$ty>::$variant);
                    }
                )+
                Err($crate::JsonError::msg(format!(
                    "unknown {} variant `{name}`",
                    stringify!($ty)
                )))
            }
        }
    };
}

/// Implement [`ToJson`]/[`FromJson`] for a struct with named fields,
/// from one ordered field list: each field is an object key equal to its
/// name, keys in list order. Fields after `;` are not serialized and
/// decode as `Default::default()` (caches and memos). Decoding builds a
/// struct literal, so a field left off both lists is a compile error.
///
/// ```
/// #[derive(Debug, PartialEq)]
/// struct Cell { model: String, accuracy: f64, memo: Option<u32> }
/// taxoglimpse_json::struct_json!(Cell { model, accuracy; memo });
///
/// let cell = Cell { model: "GPT-4".into(), accuracy: 0.5, memo: Some(3) };
/// let text = taxoglimpse_json::to_string(&cell).unwrap();
/// assert_eq!(text, r#"{"model":"GPT-4","accuracy":0.5}"#);
/// let back: Cell = taxoglimpse_json::from_str(&text).unwrap();
/// assert_eq!(back, Cell { memo: None, ..cell });
/// ```
#[macro_export]
macro_rules! struct_json {
    ($ty:ty { $($field:ident),+ $(,)? $(; $($skip:ident),+ $(,)?)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::obj(vec![
                    $((stringify!($field), $crate::ToJson::to_json(&self.$field)),)+
                ])
            }
        }

        impl $crate::FromJson for $ty {
            fn from_json(json: &$crate::Json) -> Result<Self, $crate::JsonError> {
                Ok(Self {
                    $($field: json.field_as(stringify!($field))?,)+
                    $($($skip: Default::default(),)+)?
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Record {
        zeta: u32,
        alpha: String,
        mid: Vec<Option<i64>>,
        memo: u64,
    }

    struct_json!(Record { zeta, alpha, mid; memo });

    fn record() -> Record {
        Record { zeta: 7, alpha: "a".to_owned(), mid: vec![Some(-1), None], memo: 99 }
    }

    #[test]
    fn struct_json_keys_follow_the_list_order() {
        assert_eq!(to_string(&record()).unwrap(), r#"{"zeta":7,"alpha":"a","mid":[-1,null]}"#);
    }

    #[test]
    fn struct_json_skipped_field_is_not_emitted_and_decodes_to_default() {
        let json = record().to_json();
        assert!(json.get("memo").is_none(), "{json}");
        let with_memo = r#"{"zeta":7,"alpha":"a","mid":[],"memo":5}"#;
        assert_eq!(from_str::<Record>(with_memo).unwrap().memo, 0);
    }

    #[test]
    fn struct_json_missing_key_names_the_field() {
        let err = from_str::<Record>(r#"{"zeta":7,"mid":[]}"#).unwrap_err();
        assert_eq!(err.to_string(), "missing field `alpha`");
        let err = from_str::<Record>(r#"{"zeta":"7","alpha":"a","mid":[]}"#).unwrap_err();
        assert_eq!(err.to_string(), "field `zeta`: expected unsigned integer, got string");
    }

    #[test]
    fn struct_json_round_trips() {
        let original = record();
        let back: Record = from_str(&to_string(&original).unwrap()).unwrap();
        assert_eq!(back, Record { memo: 0, ..original });
        let pretty: Record = from_str(&to_string_pretty(&back).unwrap()).unwrap();
        assert_eq!(pretty, back);
    }

    #[test]
    fn scalars_round_trip() {
        for input in ["null", "true", "false", "0", "42", "-17", "1.5", "\"hi\"", "[]", "{}"] {
            let v = from_str_value(input).unwrap();
            assert_eq!(v.render(), input, "round trip of {input}");
        }
    }

    #[test]
    fn integers_stay_exact() {
        let big = (1u64 << 48) + 12345;
        let v = from_str_value(&big.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(big));
        assert_eq!(u64::from_json(&v).unwrap(), big);
        assert_eq!(i64::from_json(&from_str_value("-9007199254740993").unwrap()).unwrap(), -9007199254740993);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let original = "line\nbreak \"quote\" back\\slash tab\t control\u{1} é 漢 🦀";
        let rendered = to_string(original).unwrap();
        let back: String = from_str(&rendered).unwrap();
        assert_eq!(back, original);
        // Surrogate pairs in the input are decoded.
        let crab: String = from_str("\"\\ud83e\\udd80\"").unwrap();
        assert_eq!(crab, "🦀");
    }

    #[test]
    fn nested_values_round_trip() {
        let text = r#"{"a":[1,2,{"b":null}],"c":{"d":true,"e":[-1.25e2]},"f":"g"}"#;
        let v = from_str_value(text).unwrap();
        assert_eq!(from_str_value(&v.render()).unwrap(), v);
        assert_eq!(from_str_value(&v.render_pretty()).unwrap(), v);
    }

    #[test]
    fn field_order_is_preserved() {
        let v = from_str_value(r#"{"z":1,"a":2,"m":3}"#).unwrap();
        assert_eq!(v.render(), r#"{"z":1,"a":2,"m":3}"#);
        assert_eq!(v.get("a"), Some(&Json::U64(2)));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn floats_round_trip() {
        for x in [0.921, -0.003, 1e-9, 385.0, 2.5, 0.1 + 0.2] {
            let rendered = to_string(&x).unwrap();
            let back: f64 = from_str(&rendered).unwrap();
            assert_eq!(back, x, "{rendered}");
        }
    }

    #[test]
    fn option_and_arrays_decode() {
        assert_eq!(Option::<u32>::from_json(&Json::Null).unwrap(), None);
        assert_eq!(Option::<u32>::from_json(&Json::U64(7)).unwrap(), Some(7));
        let arr: [String; 2] = from_str(r#"["a","b"]"#).unwrap();
        assert_eq!(arr, ["a".to_owned(), "b".to_owned()]);
        assert!(<[String; 4]>::from_json(&from_str_value(r#"["a"]"#).unwrap()).is_err());
    }

    #[test]
    fn malformed_inputs_error_not_panic() {
        for bad in [
            "", "{", "}", "[1,", "tru", "nul", "\"unterminated", "{\"a\"}", "{\"a\":}",
            "[1 2]", "01", "1.", "1e", "+1", "\"\\q\"", "\"\\u12\"", "{\"a\":1,}", "[,]",
            "1 1", "\u{7f}",
        ] {
            assert!(from_str_value(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn depth_limit_prevents_stack_overflow() {
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(from_str_value(&deep).is_err());
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(from_str_value(&ok).is_ok());
    }

    #[test]
    fn pretty_rendering_is_indented() {
        let v = Json::obj(vec![("a", Json::U64(1)), ("b", Json::Arr(vec![Json::Bool(true)]))]);
        assert_eq!(v.render_pretty(), "{\n  \"a\": 1,\n  \"b\": [\n    true\n  ]\n}");
        assert_eq!(Json::Arr(vec![]).render_pretty(), "[]");
        assert_eq!(Json::Obj(vec![]).render_pretty(), "{}");
    }

    #[test]
    fn error_messages_name_the_problem() {
        let err = from_str::<u64>("\"nope\"").unwrap_err();
        assert!(err.to_string().contains("unsigned integer"), "{err}");
        let err = from_str_value("[1, ]").unwrap_err();
        assert!(err.to_string().contains("byte"), "{err}");
        let missing = Json::obj(vec![]).field_as::<u64>("id").unwrap_err();
        assert!(missing.to_string().contains("id"), "{missing}");
    }
}
