//! Smoke pass: every workload at a small document size for one second,
//! untraced and traced, checked against the metric names and units that
//! `BENCHMARK.json` declares and the per-layer map in `workloads.json`.

use std::collections::BTreeMap;
use std::process::Command;

/// A parsed JSON value (just enough JSON for the two files and the
/// result line).
#[derive(Debug, Clone)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => {
                &fields.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no key {key}")).1
            }
            _ => panic!("not an object: {self:?}"),
        }
    }
    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        }
    }
    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => panic!("not an array: {self:?}"),
        }
    }
    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }
    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            _ => panic!("not a number: {self:?}"),
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser { s: text.as_bytes(), i: 0 };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, p.s.len(), "trailing input after JSON value");
    v
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }
    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s.get(self.i), Some(&c), "expected {} at {}", c as char, self.i);
        self.i += 1;
    }
    fn peek(&mut self) -> u8 {
        self.ws();
        self.s[self.i]
    }
    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut fields = Vec::new();
                while self.peek() != b'}' {
                    let k = self.string();
                    self.eat(b':');
                    fields.push((k, self.value()));
                    if self.peek() == b',' {
                        self.eat(b',');
                    }
                }
                self.eat(b'}');
                Json::Obj(fields)
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                while self.peek() != b']' {
                    items.push(self.value());
                    if self.peek() == b',' {
                        self.eat(b',');
                    }
                }
                self.eat(b']');
                Json::Arr(items)
            }
            b'"' => Json::Str(self.string()),
            b't' | b'f' | b'n' => {
                let word: String = self.s[self.i..]
                    .iter()
                    .take_while(|c| c.is_ascii_alphabetic())
                    .map(|&c| c as char)
                    .collect();
                self.i += word.len();
                match word.as_str() {
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    "null" => Json::Null,
                    w => panic!("bad literal {w}"),
                }
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text:?}")))
            }
        }
    }
    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = Vec::new();
        while self.s[self.i] != b'"' {
            if self.s[self.i] == b'\\' {
                self.i += 1;
            }
            out.push(self.s[self.i]);
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(out).expect("UTF-8 string")
    }
}

fn read(path: &str) -> Json {
    let dir = env!("CARGO_MANIFEST_DIR");
    parse(&std::fs::read_to_string(format!("{dir}/{path}")).unwrap())
}

/// Declared metrics of one kind: name → unit.
fn declared(kind: &str) -> BTreeMap<String, String> {
    read("../BENCHMARK.json")
        .get(kind)
        .arr()
        .iter()
        .map(|m| (m.get("name").str().to_owned(), m.get("unit").str().to_owned()))
        .collect()
}

/// Runs one pass; returns the printed notes and the parsed result line.
fn pass(workload: &str, trace: u8) -> (String, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace"])
        .arg(trace.to_string())
        .args(["--doc-bytes", "120000"])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{workload}: {}", String::from_utf8_lossy(&out.stderr));
    let last = stdout.lines().last().expect("a result line");
    let result = parse(last);
    assert_eq!(result.keys(), ["correct", "attempted", "failed", "metrics"]);
    assert!(matches!(result.get("correct"), Json::Bool(true)), "{workload}: {stdout}");
    assert!(result.get("attempted").num() >= 1.0);
    assert_eq!(result.get("failed").num(), 0.0, "{workload}: {stdout}");
    assert!(stdout.contains("# failed_ratio "), "{workload}: failed_ratio not reported");
    (stdout, result)
}

fn check_metrics(workload: &str, result: &Json, declared: &BTreeMap<String, String>) {
    let metrics = result.get("metrics");
    let printed: Vec<&str> = metrics.keys();
    assert_eq!(printed.len(), declared.len(), "{workload}: printed {printed:?}");
    for (name, unit) in declared {
        let m = metrics.get(name);
        assert_eq!(m.keys(), ["value", "unit"]);
        assert_eq!(m.get("unit").str(), unit, "{workload}: unit of {name}");
        assert!(m.get("value").num().is_finite(), "{workload}: {name}");
    }
}

fn smoke(workload: &str) {
    let (notes, result) = pass(workload, 0);
    check_metrics(workload, &result, &declared("end_to_end"));
    for (name, _) in declared("end_to_end") {
        let v = result.get("metrics").get(&name).get("value").num();
        assert!(v > 0.0, "{workload}: end-to-end {name} reads {v}");
    }
    assert!(notes.contains("samples beyond it"), "{workload}: sample counts not reported");

    let (_, traced) = pass(workload, 1);
    check_metrics(workload, &traced, &declared("per_layer"));
    for layer in read("workloads.json").get("per_layer").arr() {
        let works_in: Vec<&str> = layer.get("works_in").arr().iter().map(Json::str).collect();
        if works_in.contains(&workload) {
            let name = layer.get("name").str();
            let v = traced.get("metrics").get(name).get("value").num();
            assert!(v > 0.0, "{workload}: {name} should work here but reads {v}");
        }
    }
}

#[test]
fn views_mht() {
    smoke("views-mht");
}

#[test]
fn subjects_ecb() {
    smoke("subjects-ecb");
}

#[test]
fn publish_churn() {
    smoke("publish-churn");
}

#[test]
fn every_declared_workload_is_smoked() {
    let names: Vec<String> = read("../BENCHMARK.json")
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str().to_owned())
        .collect();
    assert_eq!(names, ["views-mht", "subjects-ecb", "publish-churn"]);
}

#[test]
fn quantiles_are_exact_order_statistics() {
    let sorted: Vec<u64> = (1..=1000).collect();
    assert_eq!(perfbench::report::quantile(&sorted, 0.5), 500);
    assert_eq!(perfbench::report::quantile(&sorted, 0.9), 900);
    assert_eq!(perfbench::report::quantile(&sorted, 0.99), 990);
    assert_eq!(perfbench::report::beyond(1000, 0.99), 10);
    assert_eq!(perfbench::report::quantile(&[], 0.5), 0);
}
