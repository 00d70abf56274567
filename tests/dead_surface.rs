//! No dead public surface: every non-test `pub fn` in `crates/*/src`
//! must have a caller in non-test code outside its own file. A new
//! function that only tests call fails: give it a caller, make it
//! private, or delete it.
//!
//! Non-test code is `crates/*/src`, `src/`, `examples/` and
//! `benchmark/src/`, minus `#[cfg(test)]` items (a module or function
//! up to its closing brace at its own indent, as `rustfmt` lays it
//! out) and the files such a module loads. Comments, string literals
//! and `use` lines are not callers, so a `pub use` re-export keeps
//! nothing alive.
//!
//! A function resolves to `Type::method` through the `impl` block
//! around it, or to `module::function` when it is free. A caller is:
//! - for a method, a path `Type::method` (or `Self::method` inside an
//!   `impl Type`), or a call `.method(` in a file that can hold a
//!   `Type`: `Type` is the only type with a public `method`, or the
//!   file reaches `Type` (names it, or calls a function or reads a
//!   field whose declaration names it), or it reaches none of the
//!   types that have one. So a live `A::quantize` keeps no
//!   `B::quantize` alive in a file that reaches only `A`;
//! - for a free function, its name outside a method call or a
//!   `Type::` path, unless a path names another module that has a
//!   function of that name.
//!
//! The one exception is [`LIBRARY_API`]: public functions kept for
//! library users with no caller in this repository, each with its
//! verdict in DESIGN.md.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::path::Path;

/// Kept with no caller here, each for the reason DESIGN.md gives
/// under "Library API".
const LIBRARY_API: &[&str] = &[
    // The paper's checkpoint-restart interface.
    "veloc::Client::recover",
    "veloc::Client::restart_latest",
    // The crash-harness seams `crash_torture` and `server_torture` drive.
    "io::CrashPlan::arm",
    "io::CrashPlan::crashed",
    "io::CrashPlan::mutations",
    "store::CrashFs::new",
    // The ε-grid code the zero-false-negative guarantee is stated over.
    "hash::Quantizer::quantize",
    // Nondeterminism sources and the physics check the paper's
    // motivation rests on.
    "cluster::RankCtx::allreduce_sum_f32",
    "hacc::observables::clustering_strength",
];

/// At most this many entries may stand in [`LIBRARY_API`].
const LIBRARY_API_CAP: usize = 15;

/// One source file: its path from the repository root, `/`-separated,
/// and its text.
struct Source {
    path: String,
    text: String,
}

/// Whether code at `path` is non-test code, whose calls count.
fn is_caller(path: &str) -> bool {
    is_defining(path)
        || ["src/", "examples/", "benchmark/src/"]
            .iter()
            .any(|dir| path.starts_with(dir))
}

/// Whether `pub fn`s at `path` are checked: `crates/<name>/src/...`.
fn is_defining(path: &str) -> bool {
    let parts: Vec<&str> = path.split('/').collect();
    parts.len() > 3 && parts[0] == "crates" && parts[2] == "src"
}

/// `text` with comments and the contents of string and character
/// literals blanked to spaces, line breaks kept.
fn blank_comments_and_literals(text: &str) -> String {
    let c: Vec<char> = text.chars().collect();
    let mut out = c.clone();
    let blank = |out: &mut Vec<char>, from: usize, to: usize| {
        for ch in &mut out[from..to.min(c.len())] {
            if *ch != '\n' {
                *ch = ' ';
            }
        }
    };
    let is_ident = |ch: char| ch.is_alphanumeric() || ch == '_';
    let mut i = 0;
    while i < c.len() {
        let prev_ident = i > 0 && is_ident(c[i - 1]);
        match c[i] {
            '/' if c.get(i + 1) == Some(&'/') => {
                let end = c[i..]
                    .iter()
                    .position(|&ch| ch == '\n')
                    .map_or(c.len(), |n| i + n);
                blank(&mut out, i, end);
                i = end;
            }
            '/' if c.get(i + 1) == Some(&'*') => {
                let (mut depth, mut j) = (1, i + 2);
                while j < c.len() && depth > 0 {
                    if c[j] == '/' && c.get(j + 1) == Some(&'*') {
                        depth += 1;
                        j += 1;
                    } else if c[j] == '*' && c.get(j + 1) == Some(&'/') {
                        depth -= 1;
                        j += 1;
                    }
                    j += 1;
                }
                blank(&mut out, i, j);
                i = j;
            }
            'r' if !prev_ident || (c[i - 1] == 'b' && (i < 2 || !is_ident(c[i - 2]))) => {
                let hashes = c[i + 1..].iter().take_while(|&&ch| ch == '#').count();
                if c.get(i + 1 + hashes) != Some(&'"') {
                    i += 1;
                    continue;
                }
                let close: Vec<char> = std::iter::once('"')
                    .chain(std::iter::repeat_n('#', hashes))
                    .collect();
                let body = i + 2 + hashes;
                let end = (body..c.len())
                    .find(|&j| c[j..].starts_with(&close))
                    .map_or(c.len(), |j| j + close.len());
                blank(&mut out, body, end - close.len());
                i = end;
            }
            '"' => {
                let mut j = i + 1;
                while j < c.len() && c[j] != '"' {
                    j += if c[j] == '\\' { 2 } else { 1 };
                }
                blank(&mut out, i + 1, j);
                i = j + 1;
            }
            '\'' => {
                // A character literal, not a lifetime such as `'a`.
                let end = if c.get(i + 1) == Some(&'\\') {
                    (i + 3..c.len()).find(|&j| c[j] == '\'')
                } else if c.get(i + 2) == Some(&'\'') {
                    Some(i + 2)
                } else {
                    None
                };
                match end {
                    Some(end) => {
                        blank(&mut out, i + 1, end);
                        i = end + 1;
                    }
                    None => i += 1,
                }
            }
            _ => i += 1,
        }
    }
    out.into_iter().collect()
}

fn indent(line: &str) -> &str {
    &line[..line.len() - line.trim_start().len()]
}

/// The non-test code of a file, line for line: comments and literals
/// blanked, then `#[cfg(test)]` items and `use` declarations. Also the
/// paths of the modules those items load from other files
/// (`#[cfg(test)] mod uring { mod tests; }` gives `uring/tests`).
fn code(text: &str) -> (Vec<String>, Vec<String>) {
    let mut test_modules = Vec::new();
    let mut lines: Vec<String> = blank_comments_and_literals(text)
        .lines()
        .map(str::to_owned)
        .collect();
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i].trim();
        if line == "#[cfg(test)]" {
            let mut item = i + 1;
            while item < lines.len() && {
                let l = lines[item].trim();
                l.is_empty() || l.starts_with("#[")
            } {
                item += 1;
            }
            let Some(head) = lines.get(item).map(|l| l.trim_end()) else {
                break;
            };
            let close = format!("{}}}", indent(head));
            let opens = head.matches('{').count();
            let balanced = opens == head.matches('}').count();
            let mut end = item;
            if !(balanced && (head.ends_with(';') || opens > 0)) {
                while end < lines.len() && lines[end].trim_end() != close {
                    end += 1;
                }
            }
            let end = end.min(lines.len() - 1);
            let mut open: Vec<(String, &str)> = Vec::new();
            for l in &lines[item..=end] {
                if open.last().is_some_and(|(close, _)| l.trim_end() == close) {
                    open.pop();
                }
                let Some(module) = l.trim().strip_prefix("mod ") else {
                    continue;
                };
                let name = module.trim_end_matches(['{', ';', ' ']);
                if module.ends_with(';') {
                    let mut path: Vec<&str> = open.iter().map(|(_, n)| *n).collect();
                    path.push(name);
                    test_modules.push(path.join("/"));
                } else {
                    open.push((format!("{}}}", indent(l)), name));
                }
            }
            lines[i..=end].iter_mut().for_each(String::clear);
            i = end + 1;
        } else if is_use(line) {
            let mut end = i;
            while end < lines.len() && !lines[end].trim_end().ends_with(';') {
                end += 1;
            }
            let end = end.min(lines.len() - 1);
            lines[i..=end].iter_mut().for_each(String::clear);
            i = end + 1;
        } else {
            i += 1;
        }
    }
    (lines, test_modules)
}

/// Whether `line` opens a `use` declaration, of any visibility.
fn is_use(line: &str) -> bool {
    let line = match line.strip_prefix("pub") {
        Some(rest) if rest.starts_with('(') => rest.split_once(')').map_or("", |(_, r)| r),
        Some(rest) => rest,
        None => line,
    };
    line.trim_start().starts_with("use ")
}

/// For each line of `code`, the type of the innermost inherent `impl`
/// block around it.
fn impl_owners(code: &[String]) -> Vec<Option<String>> {
    let mut open: Vec<(String, Option<String>)> = Vec::new();
    let mut owners = Vec::with_capacity(code.len());
    for line in code {
        let trimmed = line.trim_start();
        if open
            .last()
            .is_some_and(|(close, _)| line.trim_end() == close)
        {
            open.pop();
            owners.push(open.last().and_then(|(_, ty)| ty.clone()));
            continue;
        }
        let one_line = line.trim_end().ends_with('}')
            && line.matches('{').count() == line.matches('}').count();
        if (trimmed.starts_with("impl ") || trimmed.starts_with("impl<")) && !one_line {
            open.push((format!("{}}}", indent(line)), impl_type(trimmed)));
        }
        owners.push(open.last().and_then(|(_, ty)| ty.clone()));
    }
    owners
}

/// The type an `impl` header implements on, or `None` for a trait
/// impl (`impl Trait for Type`), whose methods are never `pub fn`.
fn impl_type(header: &str) -> Option<String> {
    let mut rest = &header["impl".len()..];
    if rest.starts_with('<') {
        let mut depth = 0;
        let end = rest
            .char_indices()
            .find(|&(_, ch)| {
                depth += match ch {
                    '<' => 1,
                    '>' => -1,
                    _ => 0,
                };
                depth == 0
            })
            .map_or(rest.len(), |(at, _)| at + 1);
        rest = &rest[end..];
    }
    let rest = rest.trim_start();
    if rest
        .split(['<', '{'])
        .next()
        .is_some_and(|head| head.contains(" for "))
    {
        return None;
    }
    let path = rest
        .split(|ch: char| !(ch.is_alphanumeric() || ch == '_' || ch == ':'))
        .next()?;
    path.rsplit("::").next().map(str::to_owned)
}

/// One token of non-test code that can name a function.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Use {
    /// `.name(` or `.name::<`: a method call.
    Method(String),
    /// `.name` with no call: a field.
    Field(String),
    /// `Qualifier::name`, with `Self` resolved to the enclosing `impl`.
    Path(String, String),
    /// A bare identifier.
    Bare(String),
}

/// A declared `fn`, public or not.
struct FnDecl {
    /// The `impl` type of a method, `None` for a free function.
    owner: Option<String>,
    name: String,
    /// The types its signature names, `Self` resolved.
    types: Vec<String>,
}

impl FnDecl {
    /// Whether `u` can call this function.
    fn called_by(&self, u: &Use) -> bool {
        match u {
            Use::Method(m) => self.owner.is_some() && *m == self.name,
            Use::Path(q, m) => *m == self.name && self.owner.as_ref().is_none_or(|o| o == q),
            Use::Bare(f) => self.owner.is_none() && *f == self.name,
            Use::Field(_) => false,
        }
    }
}

/// What one file of non-test code declares and uses.
#[derive(Default)]
struct FileScan {
    uses: HashSet<Use>,
    /// Every identifier it names.
    names: HashSet<String>,
    fns: Vec<FnDecl>,
    /// Every struct field it declares, with the types its type names.
    fields: Vec<(String, Vec<String>)>,
}

/// The tokens of `code` with their line numbers: identifiers, `::`,
/// `->`, and single punctuation characters.
fn tokens(code: &[String]) -> Vec<(String, usize)> {
    let mut tokens = Vec::new();
    for (n, line) in code.iter().enumerate() {
        let c: Vec<char> = line.chars().collect();
        let mut i = 0;
        while i < c.len() {
            let ch = c[i];
            if ch.is_alphanumeric() || ch == '_' {
                let start = i;
                while i < c.len() && (c[i].is_alphanumeric() || c[i] == '_') {
                    i += 1;
                }
                tokens.push((c[start..i].iter().collect(), n));
                continue;
            }
            let pair: String = c[i..(i + 2).min(c.len())].iter().collect();
            if pair == "::" || pair == "->" {
                tokens.push((pair, n));
                i += 2;
                continue;
            }
            if !ch.is_whitespace() {
                tokens.push((ch.to_string(), n));
            }
            i += 1;
        }
    }
    tokens
}

/// The type names (capitalized identifiers) among `tokens`, with
/// `Self` read as `owner`.
fn type_names(tokens: &[(String, usize)], owner: Option<&String>) -> Vec<String> {
    tokens
        .iter()
        .filter(|(t, _)| t.starts_with(|ch: char| ch.is_uppercase()))
        .filter_map(|(t, _)| match t.as_str() {
            "Self" => owner.cloned(),
            _ => Some(t.clone()),
        })
        .collect()
}

fn scan(code: &[String]) -> FileScan {
    let owners = impl_owners(code);
    let tokens = tokens(code);
    let mut file = FileScan::default();
    let is_ident = |t: &str| t.starts_with(|ch: char| ch.is_alphabetic() || ch == '_');
    for k in 0..tokens.len() {
        let (word, line) = &tokens[k];
        if !is_ident(word) {
            continue;
        }
        file.names.insert(word.clone());
        let prev = k.checked_sub(1).map(|p| tokens[p].0.as_str());
        let next = tokens.get(k + 1).map(|t| t.0.as_str());
        let owner = owners[*line].as_ref();
        let found = match prev {
            Some(".") if matches!(next, Some("(" | "::")) => Use::Method(word.clone()),
            Some(".") => Use::Field(word.clone()),
            Some("::") => {
                let qualifier = match tokens[k - 2].0.as_str() {
                    "Self" => owner.cloned().unwrap_or_default(),
                    q => q.to_owned(),
                };
                Use::Path(qualifier, word.clone())
            }
            Some("fn") => {
                file.fns.push(FnDecl {
                    owner: owner.cloned(),
                    name: word.clone(),
                    types: signature_types(&tokens[k..], owner),
                });
                continue;
            }
            _ => Use::Bare(word.clone()),
        };
        file.uses.insert(found);
    }
    file.fields = struct_fields(code);
    file
}

/// The types named by the signature `tokens` starts (at the
/// function's name): parameters, bounds and return type. A closure
/// passed to the function gets its arguments' types from there.
fn signature_types(tokens: &[(String, usize)], owner: Option<&String>) -> Vec<String> {
    let end = tokens
        .iter()
        .position(|(t, _)| t == "{" || t == ";")
        .unwrap_or(tokens.len());
    type_names(&tokens[..end], owner)
}

/// The fields of every struct with named fields in `code`, one per
/// line as `rustfmt` lays them out.
fn struct_fields(code: &[String]) -> Vec<(String, Vec<String>)> {
    let mut fields = Vec::new();
    let mut close: Option<String> = None;
    for line in code {
        let trimmed = line.trim();
        if let Some(end) = &close {
            if line.trim_end() == end {
                close = None;
                continue;
            }
            let field = trimmed.strip_prefix("pub ").unwrap_or(trimmed);
            let field = field.strip_prefix("pub(crate) ").unwrap_or(field);
            if let Some((name, ty)) = field.split_once(": ") {
                if name.chars().all(|ch| ch.is_alphanumeric() || ch == '_') {
                    let ty = tokens(&[ty.to_owned()]);
                    fields.push((name.to_owned(), type_names(&ty, None)));
                }
            }
        } else if trimmed.ends_with('{') && trimmed.split(' ').any(|w| w == "struct") {
            close = Some(format!("{}}}", indent(line)));
        }
    }
    fields
}

/// A non-test `pub fn` of a defining file.
#[derive(Debug, Clone)]
struct Def {
    file: usize,
    /// The `impl` type of a method, `None` for a free function.
    owner: Option<String>,
    name: String,
    /// `crate::Type::method` or `crate::module::function`.
    key: String,
    /// Where it is defined: `path:line`.
    at: String,
}

/// The crate-qualified module of a defining file:
/// `crates/store/src/index.rs` is `store::index`, a `lib.rs` or
/// `mod.rs` names its directory's module.
fn module_of(path: &str) -> String {
    let mut parts: Vec<&str> = path.split('/').collect();
    let file = parts.pop().unwrap_or_default().trim_end_matches(".rs");
    let mut module = vec![parts[1]];
    module.extend(&parts[3..]);
    if !matches!(file, "lib" | "mod" | "main") {
        module.push(file);
    }
    module.join("::")
}

fn defs(sources: &[Source], codes: &[Vec<String>], is_code: &dyn Fn(&Source) -> bool) -> Vec<Def> {
    let mut defs = Vec::new();
    for (file, (source, code)) in sources.iter().zip(codes).enumerate() {
        if !is_defining(&source.path) || !is_code(source) {
            continue;
        }
        let owners = impl_owners(code);
        for (n, (line, owner)) in code.iter().zip(owners).enumerate() {
            let trimmed = line.trim_start();
            let Some(rest) = ["pub fn ", "pub const fn ", "pub unsafe fn "]
                .iter()
                .find_map(|p| trimmed.strip_prefix(p))
            else {
                continue;
            };
            let name: String = rest
                .chars()
                .take_while(|&ch| ch.is_alphanumeric() || ch == '_')
                .collect();
            if name.is_empty() {
                continue;
            }
            let crate_name = source.path.split('/').nth(1).unwrap_or_default();
            let key = match &owner {
                Some(ty) => format!("{crate_name}::{ty}::{name}"),
                None => format!("{}::{name}", module_of(&source.path)),
            };
            defs.push(Def {
                file,
                owner,
                name,
                key,
                at: format!("{}:{}", source.path, n + 1),
            });
        }
    }
    defs
}

/// `key -> path:line` of every public function with no caller.
fn dead_surface(sources: &[Source]) -> BTreeMap<String, String> {
    let (codes, test_modules): (Vec<Vec<String>>, Vec<Vec<String>>) =
        sources.iter().map(|s| code(&s.text)).unzip();
    // Files that `#[cfg(test)]` items load are test code.
    let mut test_files = HashSet::new();
    for (source, modules) in sources.iter().zip(&test_modules) {
        let dir = match source.path.rsplit_once('/') {
            Some((dir, "lib.rs" | "main.rs" | "mod.rs")) => dir.to_owned(),
            _ => source.path.trim_end_matches(".rs").to_owned(),
        };
        for module in modules {
            test_files.insert(format!("{dir}/{module}.rs"));
            test_files.insert(format!("{dir}/{module}/mod.rs"));
        }
    }
    let is_code = |s: &Source| is_caller(&s.path) && !test_files.contains(&s.path);
    let defs = defs(sources, &codes, &is_code);
    let scans: Vec<Option<FileScan>> = sources
        .iter()
        .zip(&codes)
        .map(|(s, code)| is_code(s).then(|| scan(code)))
        .collect();
    // Every function and struct field declared in non-test code, by
    // name.
    let mut fns: HashMap<&str, Vec<&FnDecl>> = HashMap::new();
    let mut field_types: HashMap<&str, Vec<&String>> = HashMap::new();
    for scan in scans.iter().flatten() {
        for decl in &scan.fns {
            fns.entry(&decl.name).or_default().push(decl);
        }
        for (name, types) in &scan.fields {
            field_types.entry(name).or_default().extend(types);
        }
    }
    // The types a file can hold a value of without naming them: those
    // of the signatures of the functions it calls and of the fields it
    // reads.
    let reach = |scan: &FileScan| -> HashSet<String> {
        let mut reach = scan.names.clone();
        for u in &scan.uses {
            let name = match u {
                Use::Method(name) | Use::Path(_, name) | Use::Bare(name) => name,
                Use::Field(field) => {
                    let types = field_types.get(field.as_str()).into_iter().flatten();
                    reach.extend(types.map(|t| (*t).clone()));
                    continue;
                }
            };
            for decl in fns.get(name.as_str()).into_iter().flatten() {
                if decl.called_by(u) {
                    reach.extend(decl.types.iter().cloned());
                }
            }
        }
        reach
    };
    let scanned: Vec<Option<(&FileScan, HashSet<String>)>> = scans
        .iter()
        .map(|s| s.as_ref().map(|s| (s, reach(s))))
        .collect();
    // Which types have a public method of each name, and which modules
    // a public free function of each name.
    let mut method_owners: HashMap<&str, BTreeSet<&str>> = HashMap::new();
    let mut fn_modules: HashMap<&str, BTreeSet<String>> = HashMap::new();
    for d in &defs {
        match &d.owner {
            Some(ty) => {
                method_owners.entry(&d.name).or_default().insert(ty);
            }
            None => {
                let module = module_of(&sources[d.file].path);
                fn_modules.entry(&d.name).or_default().insert(module);
            }
        }
    }
    let called = |d: &Def, (scan, reach): &(&FileScan, HashSet<String>)| -> bool {
        let uses = &scan.uses;
        match &d.owner {
            Some(ty) => {
                if uses.contains(&Use::Path(ty.clone(), d.name.clone())) {
                    return true;
                }
                let owners = &method_owners[d.name.as_str()];
                uses.contains(&Use::Method(d.name.clone()))
                    && (owners.len() == 1
                        || reach.contains(ty)
                        || !owners.iter().any(|o| reach.contains(*o)))
            }
            None => {
                let last = |m: &str| m.rsplit("::").next().unwrap_or(m).to_owned();
                let module = module_of(&sources[d.file].path);
                let crate_name = module.split("::").next().unwrap_or_default();
                let others: BTreeSet<String> = fn_modules[d.name.as_str()]
                    .iter()
                    .filter(|m| **m != module)
                    .map(|m| last(m))
                    .collect();
                uses.iter().any(|u| match u {
                    Use::Bare(w) => *w == d.name,
                    Use::Path(q, w) => {
                        *w == d.name
                            && q.starts_with(|ch: char| ch.is_lowercase())
                            && (*q == last(&module)
                                || *q == crate_name
                                || *q == format!("reprocmp_{crate_name}")
                                || !others.contains(q))
                    }
                    Use::Method(_) | Use::Field(_) => false,
                })
            }
        }
    };
    defs.iter()
        .filter(|d| {
            !scanned
                .iter()
                .enumerate()
                .any(|(f, s)| f != d.file && s.as_ref().is_some_and(|s| called(d, s)))
        })
        .map(|d| (d.key.clone(), d.at.clone()))
        .collect()
}

fn rust_files(root: &Path, dir: &Path, out: &mut Vec<Source>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            rust_files(root, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root).expect("under the root");
            let rel = rel.to_str().expect("a utf-8 path").replace('\\', "/");
            if is_caller(&rel) {
                let text = std::fs::read_to_string(&path).expect("a readable source file");
                out.push(Source { path: rel, text });
            }
        }
    }
}

#[test]
fn every_public_function_has_a_caller() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    for dir in ["crates", "src", "examples", "benchmark/src"] {
        rust_files(root, &root.join(dir), &mut sources);
    }
    let mut dead = dead_surface(&sources);
    assert!(
        LIBRARY_API.len() <= LIBRARY_API_CAP,
        "at most {LIBRARY_API_CAP} library-API entries"
    );
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    for entry in LIBRARY_API {
        assert!(
            design.contains(&format!("`{entry}`")),
            "library-API entry {entry} needs its verdict in DESIGN.md"
        );
        assert!(
            dead.remove(*entry).is_some(),
            "library-API entry {entry} has a caller or is gone: drop the entry"
        );
    }
    assert!(
        dead.is_empty(),
        "public functions with no non-test caller: give each a caller, make it private, \
         or delete it: {dead:#?}"
    );
}

/// The scanner over in-memory files.
fn dead_in(files: &[(&str, &str)]) -> BTreeSet<String> {
    let sources: Vec<Source> = files
        .iter()
        .map(|(path, text)| Source {
            path: (*path).to_owned(),
            text: (*text).to_owned(),
        })
        .collect();
    dead_surface(&sources).into_keys().collect()
}

const LIB: &str = "crates/a/src/lib.rs";

#[test]
fn a_caller_under_tests_does_not_count() {
    let lib = "pub fn helper() {}\npub fn used() {}\n";
    let user = "fn main() {\n    a::used();\n}\n";
    let test = "#[test]\nfn t() {\n    a::helper();\n}\n";
    let dead = dead_in(&[(LIB, lib), ("src/main.rs", user), ("tests/t.rs", test)]);
    assert_eq!(dead, BTreeSet::from(["a::helper".to_owned()]));
}

#[test]
fn a_re_export_does_not_count() {
    let inner = "pub fn spectrum() {}\n";
    let lib = "mod inner;\npub use inner::spectrum;\npub use inner::{\n    spectrum as s,\n};\n";
    let dead = dead_in(&[("crates/a/src/inner.rs", inner), (LIB, lib)]);
    assert_eq!(dead, BTreeSet::from(["a::inner::spectrum".to_owned()]));
}

#[test]
fn a_comment_or_a_string_does_not_count() {
    let lib = "pub fn compact() {}\n";
    let user = "// compact() runs here\n/* a::compact() */\nfn main() {\n    \
                let s = \"a::compact()\";\n    let c = ['c', '\\'', '\\\\'];\n}\n";
    let dead = dead_in(&[(LIB, lib), ("examples/e.rs", user)]);
    assert_eq!(dead, BTreeSet::from(["a::compact".to_owned()]));
}

#[test]
fn a_caller_in_a_cfg_test_module_does_not_count() {
    let lib = "pub fn probe() {}\n";
    let user = "pub fn run() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
                a::probe();\n    }\n}\n";
    let main = "fn main() {\n    b::run();\n}\n";
    let dead = dead_in(&[
        (LIB, lib),
        ("crates/b/src/lib.rs", user),
        ("src/main.rs", main),
    ]);
    assert_eq!(dead, BTreeSet::from(["a::probe".to_owned()]));
}

#[test]
fn a_live_homonym_keeps_no_other_alive() {
    let lib = "pub struct A;\npub struct B;\n\nimpl A {\n    pub fn quantize(&self) {}\n}\n\n\
               impl<'a> B {\n    pub fn quantize(&self) {}\n}\n";
    let user = "use a::A;\n\nfn main() {\n    let q = A;\n    q.quantize();\n}\n";
    let test = "fn t() {\n    a::B.quantize();\n}\n";
    let dead = dead_in(&[(LIB, lib), ("src/main.rs", user), ("tests/t.rs", test)]);
    assert_eq!(dead, BTreeSet::from(["a::B::quantize".to_owned()]));
}

#[test]
fn paths_and_self_resolve_to_their_type() {
    let lib = "pub struct A;\npub struct B;\n\nimpl A {\n    pub fn new() -> A {\n        A\n    }\n}\n\n\
               impl B {\n    pub fn new() -> B {\n        B\n    }\n}\n\n\
               impl std::fmt::Display for B {\n    fn fmt(&self) {}\n}\n";
    let user = "impl Wrapper {\n    fn make() {\n        let _ = A::new();\n    }\n}\n";
    let own = "impl a::B {\n    fn again() {\n        let _ = Self::new();\n    }\n}\n";
    let dead = dead_in(&[(LIB, lib), ("src/user.rs", user)]);
    assert_eq!(dead, BTreeSet::from(["a::B::new".to_owned()]));
    let dead = dead_in(&[(LIB, lib), ("src/user.rs", user), ("src/own.rs", own)]);
    assert!(dead.is_empty(), "{dead:?}");
}

#[test]
fn a_path_to_another_module_keeps_no_homonym_alive() {
    let x = "pub fn encode() {}\n";
    let y = "pub fn encode() {}\n";
    let user = "fn main() {\n    a::x::encode();\n}\n";
    let dead = dead_in(&[
        ("crates/a/src/x.rs", x),
        ("crates/a/src/y.rs", y),
        ("src/main.rs", user),
    ]);
    assert_eq!(dead, BTreeSet::from(["a::y::encode".to_owned()]));
}

#[test]
fn a_caller_in_a_test_module_file_does_not_count() {
    let lib =
        "pub fn probe() {}\npub fn run() {}\n\n#[cfg(test)]\nmod uring {\n    mod tests;\n}\n";
    let tests = "fn t() {\n    crate::probe();\n}\n";
    let main = "fn main() {\n    a::run();\n}\n";
    let dead = dead_in(&[
        (LIB, lib),
        ("crates/a/src/uring/tests.rs", tests),
        ("src/main.rs", main),
    ]);
    assert_eq!(dead, BTreeSet::from(["a::probe".to_owned()]));
}
