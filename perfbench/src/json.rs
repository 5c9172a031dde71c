//! A minimal JSON object writer for the worker's one-line reports.

use std::fmt::Write as _;

/// An ordered JSON object under construction.
#[derive(Debug, Default)]
pub struct Obj {
    body: String,
}

impl Obj {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        write!(self.body, "\"{key}\": ").expect("writing to a String");
    }

    /// A number; non-finite values become `null`.
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        if value.is_finite() {
            write!(self.body, "{value:?}").expect("writing to a String");
        } else {
            self.body.push_str("null");
        }
        self
    }

    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        write!(self.body, "{value}").expect("writing to a String");
        self
    }

    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        self.body.push_str(if value { "true" } else { "false" });
        self
    }

    /// A string; only characters the reports use are escaped.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.body.push('"');
        for c in value.chars() {
            match c {
                '"' => self.body.push_str("\\\""),
                '\\' => self.body.push_str("\\\\"),
                '\n' => self.body.push_str("\\n"),
                c => self.body.push(c),
            }
        }
        self.body.push('"');
        self
    }

    /// A nested value already rendered as JSON.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key);
        self.body.push_str(json);
        self
    }

    pub fn nums(&mut self, key: &str, values: &[f64]) -> &mut Self {
        let items: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
        self.raw(key, &format!("[{}]", items.join(", ")))
    }

    #[must_use]
    pub fn render(&self) -> String {
        format!("{{{}}}", self.body)
    }
}
