//! Tiny-size smoke test: every workload, traced and untraced, emits exactly
//! the metrics `BENCHMARK.json` lists, each with its unit, and passes its
//! correctness checks.

use std::collections::BTreeMap;
use std::process::Command;

/// A parsed JSON value (just enough JSON for `BENCHMARK.json` and the
/// benchmark's result line).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(map) => map.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(map) => map,
            other => panic!("not an object: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser { s: text.as_bytes(), i: 0 };
        let value = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing characters in {text}");
        value
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s.get(self.i), Some(&c), "expected `{}` at byte {}", c as char, self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut map = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(map);
                }
                loop {
                    self.ws();
                    let Json::Str(key) = self.value() else { panic!("object key is not a string") };
                    self.eat(b':');
                    let value = self.value();
                    assert!(map.insert(key.clone(), value).is_none(), "duplicate key {key}");
                    self.ws();
                    if self.s[self.i] == b',' {
                        self.i += 1;
                    } else {
                        self.eat(b'}');
                        return Json::Obj(map);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    if self.s[self.i] == b',' {
                        self.i += 1;
                    } else {
                        self.eat(b']');
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    match self.s[self.i] {
                        b'"' => {
                            self.i += 1;
                            return Json::Str(out);
                        }
                        b'\\' => {
                            out.push(match self.s[self.i + 1] {
                                b'n' => '\n',
                                b't' => '\t',
                                c => c as char,
                            });
                            self.i += 2;
                        }
                        _ => {
                            let rest = std::str::from_utf8(&self.s[self.i..]).expect("utf-8");
                            let c = rest.chars().next().expect("a character");
                            out.push(c);
                            self.i += c.len_utf8();
                        }
                    }
                }
            }
            b't' if self.s[self.i..].starts_with(b"true") => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' if self.s[self.i..].starts_with(b"false") => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' if self.s[self.i..].starts_with(b"null") => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(self.s[self.i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("utf-8");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number `{text}`")))
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` table.
fn listed(table: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(table)
        .arr()
        .iter()
        .map(|m| (m.get("name").str().to_string(), m.get("unit").str().to_string()))
        .collect()
}

fn run(workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_sigmabench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.2", "--trace", trace])
        .arg("--tiny")
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    Parser::parse(stdout.lines().last().expect("a result line"))
}

fn assert_emits(table: &str, trace: &str) {
    let expected = listed(table);
    for workload in ["compute", "chatty", "fleet"] {
        let result = run(workload, trace);
        assert_eq!(result.get("correct"), &Json::Bool(true), "{workload}");
        assert!(result.get("attempted").num() >= 1.0);
        assert_eq!(result.get("failed").num(), 0.0);
        let metrics = result.get("metrics").obj();
        let got: Vec<(String, String)> = metrics
            .iter()
            .map(|(name, m)| (name.clone(), m.get("unit").str().to_string()))
            .collect();
        let mut want = expected.clone();
        want.sort();
        assert_eq!(got, want, "{workload} --trace {trace}: metric names or units differ");
        for (name, m) in metrics {
            assert!(m.get("value").num().is_finite(), "{workload}: {name} is not finite");
        }
    }
}

#[test]
fn untraced_runs_emit_every_end_to_end_metric() {
    assert_emits("end_to_end", "0");
}

#[test]
fn traced_runs_emit_every_per_layer_metric() {
    assert_emits("per_layer", "1");
}

#[test]
fn benchmark_json_matches_the_catalog() {
    let out = Command::new(env!("CARGO_BIN_EXE_sigmabench"))
        .arg("--describe")
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success());
    let catalog: Vec<Vec<String>> = String::from_utf8(out.stdout)
        .expect("utf-8 output")
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| line.split('\t').map(str::to_string).collect())
        .collect();
    let json = benchmark_json();
    let mut rows = Vec::new();
    for table in ["end_to_end", "per_layer"] {
        for m in json.get(table).arr() {
            rows.push((m.get("name").str(), m.get("unit").str(), m.get("better").str()));
            if table == "end_to_end" {
                let bound = m.get("bound").num();
                assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.get("name").str());
            }
        }
    }
    assert_eq!(rows.len(), catalog.len(), "metric count differs from the catalog");
    for ((name, unit, better), row) in rows.iter().zip(&catalog) {
        assert_eq!([*name, *unit, *better], [row[0].as_str(), row[1].as_str(), row[2].as_str()]);
    }
    let setup = json
        .get("end_to_end")
        .arr()
        .iter()
        .find(|m| m.get("name").str() == "setup_s")
        .expect("setup_s is listed");
    let largest =
        json.get("end_to_end").arr().iter().map(|m| m.get("bound").num()).fold(0.0, f64::max);
    assert_eq!(setup.get("bound").num(), largest, "setup_s must carry the largest bound");
    let workloads: Vec<&str> =
        json.get("workloads").arr().iter().map(|w| w.get("name").str()).collect();
    assert_eq!(workloads, ["compute", "chatty", "fleet"]);
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_sigmabench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
