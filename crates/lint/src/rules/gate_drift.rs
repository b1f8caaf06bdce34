//! Gate-drift: every bench ratio gate the CI workflow runs
//! (`cargo bench -p … --bench <target> -- <filter>`) must name a bench
//! target file that exists and a filter that matches a bench registered
//! in it — otherwise the gate silently runs zero benches and the
//! regression it was guarding walks in unnoticed.

use crate::lexer::{lex, TokKind};
use crate::manifest::{GatesCfg, Severity};
use crate::{Finding, RULE_GATE_DRIFT};
use std::path::Path;

/// One `cargo bench … --bench <target> -- <filter>` invocation found in
/// the workflow.
#[derive(Debug, PartialEq, Eq)]
pub struct Gate {
    /// 1-based workflow line.
    pub line: u32,
    /// The `--bench` target name (`micro`).
    pub target: String,
    /// The positional filter after `--`, if any (`analysis_query`).
    pub filter: Option<String>,
}

/// Extracts bench gates from workflow text.
pub fn parse_gates(workflow: &str) -> Vec<Gate> {
    let mut gates = Vec::new();
    for (idx, line) in workflow.lines().enumerate() {
        if !line.contains("cargo bench") || !line.contains("--bench") {
            continue;
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        let Some(bench_pos) = words.iter().position(|w| *w == "--bench") else {
            continue;
        };
        let Some(target) = words.get(bench_pos + 1) else {
            continue;
        };
        let filter = words
            .iter()
            .position(|w| *w == "--")
            .and_then(|p| words.get(p + 1))
            .filter(|w| !w.starts_with('-'))
            .map(|w| w.to_string());
        gates.push(Gate { line: (idx + 1) as u32, target: target.to_string(), filter });
    }
    gates
}

/// The bench names registered in one bench target file: string literals
/// passed directly to `bench_function(…)`, plus string literals bound
/// by `let <ident> = "…";` (the `gate_name` idiom).
pub fn bench_names(src: &str) -> Vec<String> {
    let lexed = lex(src);
    let toks = &lexed.tokens;
    let mut names = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("bench_function")
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && toks.get(i + 2).is_some_and(|n| n.kind == TokKind::Str)
        {
            names.push(toks[i + 2].text.clone());
        }
        if t.is_ident("let")
            && toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident)
            && toks.get(i + 2).is_some_and(|n| n.is_punct('='))
            && toks.get(i + 3).is_some_and(|n| n.kind == TokKind::Str)
            && toks.get(i + 4).is_some_and(|n| n.is_punct(';'))
        {
            names.push(toks[i + 3].text.clone());
        }
    }
    names
}

/// Runs the gate-drift pass. `root` is the workspace root the
/// manifest's paths are relative to.
pub fn check(root: &Path, cfg: &GatesCfg) -> Vec<Finding> {
    let mut findings = Vec::new();
    let workflow_path = root.join(&cfg.workflow);
    let Ok(workflow) = std::fs::read_to_string(&workflow_path) else {
        findings.push(Finding {
            file: cfg.workflow.clone(),
            line: 1,
            rule: RULE_GATE_DRIFT,
            message: format!("cannot read workflow `{}`", workflow_path.display()),
            severity: Severity::Error,
        });
        return findings;
    };
    for gate in parse_gates(&workflow) {
        let bench_file = root.join(&cfg.bench_dir).join(format!("{}.rs", gate.target));
        let Ok(bench_src) = std::fs::read_to_string(&bench_file) else {
            findings.push(Finding {
                file: cfg.workflow.clone(),
                line: gate.line,
                rule: RULE_GATE_DRIFT,
                message: format!(
                    "gate runs `--bench {}` but {}/{}.rs does not exist",
                    gate.target, cfg.bench_dir, gate.target
                ),
                severity: Severity::Error,
            });
            continue;
        };
        let Some(filter) = gate.filter else {
            // `-- --test` smoke runs and unfiltered runs can't drift.
            continue;
        };
        let names = bench_names(&bench_src);
        if !names.iter().any(|n| n.contains(filter.as_str())) {
            findings.push(Finding {
                file: cfg.workflow.clone(),
                line: gate.line,
                rule: RULE_GATE_DRIFT,
                message: format!(
                    "gate filter `{filter}` matches no bench registered in {}/{}.rs",
                    cfg.bench_dir, gate.target
                ),
                severity: Severity::Error,
            });
        }
    }
    findings
}
