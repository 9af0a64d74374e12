//! The binding-aware dataflow layer: assign every expression a coarse
//! *class* (sequence number, byte buffer, sized integer, known struct, …)
//! by tracking declared types through `let` bindings, parameters, struct
//! fields and method returns.
//!
//! The classes are deliberately crude — this is a lint, not a type checker.
//! Anything unresolvable is [`Class::Unknown`], and every rule that
//! consumes a class treats `Unknown` as "stay silent": precision errs
//! toward false negatives, never toward noise.

use crate::ast::{self, Expr, ExprKind, File, LitKind, Stmt};
use std::collections::{BTreeMap, BTreeSet};

/// Field names that denote TCP sequence-space values when the declaring
/// struct resolves them to `u32` (or cannot be resolved at all).
pub const SEQ_NAMES: &[&str] = &["seq", "ack", "snd_nxt", "snd_una", "rcv_nxt", "isn"];

/// Frame/buffer types whose wholesale copies A001 reports.
pub const FRAME_TYPES: &[&str] = &[
    "EthernetFrame",
    "Ipv4Packet",
    "TcpSegment",
    "UdpDatagram",
    "ArpPacket",
    "IcmpEcho",
];

/// The coarse type class of an expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Class {
    /// Could not be resolved; rules must not fire on it.
    Unknown,
    Bool,
    /// Integer of the given bit width; `0` = unsuffixed literal
    /// (width unknown, so narrowing checks skip it).
    Int(u16),
    /// A TCP sequence-space `u32` (RFC 1982 serial arithmetic required).
    Seq,
    /// `Vec<u8>` / `&[u8]` payload bytes.
    ByteBuf,
    /// A struct known to the symbol index, by name.
    Struct(String),
    /// Resolved, but nothing any rule cares about.
    Other,
}

impl Class {
    /// Integer width for narrowing checks (`Seq` is a `u32`).
    pub fn int_width(&self) -> Option<u16> {
        match self {
            Class::Int(w) if *w > 0 => Some(*w),
            Class::Seq => Some(32),
            _ => None,
        }
    }
}

/// Workspace-wide symbol knowledge: which functions return `Result`, what
/// named functions return, and every struct's field table. Built once over
/// all parsed files so cross-file calls resolve; a single-file fallback
/// covers fixtures.
#[derive(Debug, Default)]
pub struct SymbolIndex {
    returns_result: BTreeSet<String>,
    returns_other: BTreeSet<String>,
    /// fn name → return type text; ambiguous names map to `""`.
    fn_ret: BTreeMap<String, String>,
    /// struct name → (field name → type text).
    pub structs: BTreeMap<String, BTreeMap<String, String>>,
}

impl SymbolIndex {
    /// Fold one parsed file into the index.
    pub fn add_file(&mut self, file: &File) {
        for (name, fields) in &file.structs {
            let entry = self.structs.entry(name.clone()).or_default();
            for (f, ty) in fields {
                entry.entry(f.clone()).or_insert_with(|| ty.clone());
            }
        }
        for f in &file.functions {
            match &f.ret {
                Some(r) if is_result_ty(r) => {
                    self.returns_result.insert(f.name.clone());
                }
                _ => {
                    self.returns_other.insert(f.name.clone());
                }
            }
            let ret = f.ret.clone().unwrap_or_default();
            self.fn_ret
                .entry(f.name.clone())
                .and_modify(|prev| {
                    if *prev != ret {
                        prev.clear(); // ambiguous across the workspace
                    }
                })
                .or_insert(ret);
        }
    }

    /// Does every known function of this name return a `Result`?
    ///
    /// Requiring *unanimity* keeps R001 quiet when one `fn close()` returns
    /// `Result` and another does not — a missed site is recoverable, a
    /// false positive forces a bogus waiver.
    pub fn is_result_fn(&self, name: &str) -> bool {
        self.returns_result.contains(name) && !self.returns_other.contains(name)
    }

    /// Unambiguous return type of a named function, if known.
    pub fn ret_of(&self, name: &str) -> Option<&str> {
        self.fn_ret
            .get(name)
            .map(String::as_str)
            .filter(|s| !s.is_empty())
    }
}

/// Does a return-type string denote `Result<…>` (including aliases like
/// `io::Result<…>`)?
pub fn is_result_ty(ty: &str) -> bool {
    let head = ty.split('<').next().unwrap_or(ty);
    head == "Result" || head.ends_with("::Result")
}

/// Resolve a declared type string to a class. `name_hint` is the binding
/// or field name: a `u32` named like a sequence number classifies as
/// [`Class::Seq`].
pub fn class_of_ty(ty: &str, name_hint: Option<&str>, index: &SymbolIndex) -> Class {
    let mut t = ty.trim();
    // Strip reference/mutability sigils; they don't change the class.
    loop {
        if let Some(rest) = t.strip_prefix('&') {
            t = rest.trim_start();
            if let Some(rest) = t.strip_prefix("mut ") {
                t = rest.trim_start();
            }
            // A stripped lifetime: `&'a T`.
            if t.starts_with('\'') {
                t = t.split_once(' ').map_or("", |(_, r)| r).trim_start();
            }
            continue;
        }
        break;
    }
    match t {
        "bool" => return Class::Bool,
        "u8" | "i8" => return Class::Int(8),
        "u16" | "i16" => return Class::Int(16),
        "i32" => return Class::Int(32),
        "u64" | "i64" | "usize" | "isize" => return Class::Int(64),
        "u128" | "i128" => return Class::Int(128),
        "Vec<u8>" | "[u8]" => return Class::ByteBuf,
        "u32" => {
            return match name_hint {
                Some(n) if SEQ_NAMES.contains(&n) => Class::Seq,
                _ => Class::Int(32),
            };
        }
        _ => {}
    }
    if t.starts_with("[u8;") {
        return Class::ByteBuf;
    }
    let head = t
        .split(['<', ' '])
        .next()
        .unwrap_or(t)
        .rsplit("::")
        .next()
        .unwrap_or(t);
    if index.structs.contains_key(head) || FRAME_TYPES.contains(&head) {
        return Class::Struct(head.to_string());
    }
    if t.is_empty() {
        Class::Unknown
    } else {
        Class::Other
    }
}

/// Per-function classification result: `classes[expr.id]` is the class of
/// that expression node (for every function in the file).
pub struct Classified {
    pub classes: Vec<Class>,
}

impl Classified {
    pub fn class(&self, e: &Expr) -> &Class {
        self.classes.get(e.id as usize).unwrap_or(&Class::Unknown)
    }
}

/// Classify every expression in every function of a parsed file.
pub fn classify(file: &File, index: &SymbolIndex) -> Classified {
    let mut classes = vec![Class::Unknown; file.expr_count as usize];
    for f in &file.functions {
        let mut env: BTreeMap<String, Class> = BTreeMap::new();
        if let Some(self_ty) = &f.self_ty {
            env.insert("self".to_string(), Class::Struct(self_ty.clone()));
        }
        for (name, ty) in &f.params {
            env.insert(name.clone(), class_of_ty(ty, Some(name), index));
        }
        if let Some(body) = &f.body {
            let mut cx = ClassifyCx {
                index,
                classes: &mut classes,
            };
            cx.block(body, &mut env);
        }
    }
    Classified { classes }
}

struct ClassifyCx<'a> {
    index: &'a SymbolIndex,
    classes: &'a mut Vec<Class>,
}

impl ClassifyCx<'_> {
    fn block(&mut self, b: &ast::Block, env: &mut BTreeMap<String, Class>) -> Class {
        let mut last = Class::Other;
        for (i, s) in b.stmts.iter().enumerate() {
            match s {
                Stmt::Let {
                    names,
                    ty,
                    init,
                    els,
                    ..
                } => {
                    let init_class = init.as_ref().map(|e| self.expr(e, env));
                    if let Some(b) = els {
                        self.block(b, env);
                    }
                    let declared = ty
                        .as_ref()
                        .map(|t| class_of_ty(t, names.first().map(String::as_str), self.index));
                    // A declared type wins; otherwise flow the initializer
                    // class into a single-name binding.
                    let class = match (declared, init_class) {
                        (Some(c), _) if c != Class::Unknown => c,
                        (_, Some(c)) => c,
                        _ => Class::Unknown,
                    };
                    if names.len() == 1 {
                        env.insert(names[0].clone(), class);
                    } else {
                        for n in names {
                            env.insert(n.clone(), Class::Unknown);
                        }
                    }
                    last = Class::Other;
                }
                Stmt::Expr { expr, semi } => {
                    let c = self.expr(expr, env);
                    last = if *semi || i + 1 != b.stmts.len() {
                        Class::Other
                    } else {
                        c
                    };
                }
            }
        }
        last
    }

    fn expr(&mut self, e: &Expr, env: &mut BTreeMap<String, Class>) -> Class {
        let class = self.compute(e, env);
        if let Some(slot) = self.classes.get_mut(e.id as usize) {
            *slot = class.clone();
        }
        class
    }

    fn compute(&mut self, e: &Expr, env: &mut BTreeMap<String, Class>) -> Class {
        match &e.kind {
            ExprKind::Path(segs) => match segs.as_slice() {
                [name] => env.get(name).cloned().unwrap_or(Class::Unknown),
                [ty, tail] => {
                    // Associated consts like `u32::MAX` keep their width.
                    if matches!(tail.as_str(), "MAX" | "MIN" | "BITS") {
                        class_of_ty(ty, None, self.index)
                    } else {
                        Class::Unknown
                    }
                }
                _ => Class::Unknown,
            },
            ExprKind::Lit(l) => match l {
                LitKind::Int(w) => Class::Int(*w),
                LitKind::Bool => Class::Bool,
                _ => Class::Other,
            },
            ExprKind::Field { base, name } => {
                let base_class = self.expr(base, env);
                match base_class {
                    Class::Struct(s) => {
                        if let Some(ty) = self.index.structs.get(&s).and_then(|fs| fs.get(name)) {
                            class_of_ty(ty, Some(name), self.index)
                        } else if SEQ_NAMES.contains(&name.as_str()) {
                            // Known struct but unlisted field (e.g. behind
                            // a tuple): fall back to the naming convention.
                            Class::Seq
                        } else {
                            Class::Unknown
                        }
                    }
                    Class::Unknown if SEQ_NAMES.contains(&name.as_str()) => Class::Seq,
                    _ => Class::Unknown,
                }
            }
            ExprKind::MethodCall { base, name, args } => {
                let base_class = self.expr(base, env);
                for a in args {
                    self.expr(a, env);
                }
                match name.as_str() {
                    "len" | "count" | "capacity" => Class::Int(64),
                    "to_vec" => Class::ByteBuf,
                    "clone" | "to_owned" | "min" | "max" => base_class,
                    n if n.starts_with("wrapping_") || n.starts_with("saturating_") => base_class,
                    _ => self
                        .index
                        .ret_of(name)
                        .map(|r| class_of_ty(r, None, self.index))
                        .unwrap_or(Class::Unknown),
                }
            }
            ExprKind::Call { callee, args } => {
                self.expr(callee, env);
                for a in args {
                    self.expr(a, env);
                }
                if let ExprKind::Path(segs) = &callee.kind {
                    match segs.as_slice() {
                        // `u16::from(x)` and friends.
                        [ty, ctor] if ctor == "from" => {
                            return class_of_ty(ty, None, self.index);
                        }
                        [name] => {
                            if let Some(r) = self.index.ret_of(name) {
                                return class_of_ty(r, None, self.index);
                            }
                        }
                        _ => {}
                    }
                }
                Class::Unknown
            }
            ExprKind::MacroCall { name, args } => {
                for a in args {
                    self.expr(a, env);
                }
                if name == "vec" {
                    Class::Unknown // could be Vec<u8>, but we can't tell
                } else {
                    Class::Other
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let lc = self.expr(lhs, env);
                let rc = self.expr(rhs, env);
                use ast::BinOp::*;
                match op {
                    Lt | Le | Gt | Ge | Eq | Ne | And | Or => Class::Bool,
                    _ => {
                        if lc == Class::Seq || rc == Class::Seq {
                            Class::Seq
                        } else if lc != Class::Unknown {
                            lc
                        } else {
                            rc
                        }
                    }
                }
            }
            ExprKind::Assign { lhs, rhs, .. } => {
                self.expr(lhs, env);
                self.expr(rhs, env);
                Class::Other
            }
            ExprKind::Cast { base, ty, .. } => {
                self.expr(base, env);
                class_of_ty(ty, None, self.index)
            }
            ExprKind::Unary { op, base } => {
                let c = self.expr(base, env);
                match op {
                    '&' | '*' | '-' => c,
                    '!' => c,
                    _ => Class::Unknown,
                }
            }
            ExprKind::Index { base, index } => {
                let bc = self.expr(base, env);
                self.expr(index, env);
                match bc {
                    // `buf[i]` is one byte; `buf[a..b]` is still a byte slice.
                    Class::ByteBuf => {
                        if matches!(index.kind, ExprKind::Range { .. }) {
                            Class::ByteBuf
                        } else {
                            Class::Int(8)
                        }
                    }
                    _ => Class::Unknown,
                }
            }
            ExprKind::Try { base } => {
                self.expr(base, env);
                Class::Unknown
            }
            ExprKind::Tuple(xs) | ExprKind::Array(xs) => {
                for x in xs {
                    self.expr(x, env);
                }
                Class::Other
            }
            ExprKind::Block(b) => self.block(b, env),
            ExprKind::If {
                names,
                cond,
                then,
                els,
            } => {
                self.expr(cond, env);
                for n in names {
                    env.insert(n.clone(), Class::Unknown);
                }
                self.block(then, env);
                if let Some(els) = els {
                    self.expr(els, env);
                }
                Class::Unknown
            }
            ExprKind::Match { scrut, arms } => {
                self.expr(scrut, env);
                for arm in arms {
                    for n in &arm.names {
                        env.insert(n.clone(), Class::Unknown);
                    }
                    self.expr(&arm.body, env);
                }
                Class::Unknown
            }
            ExprKind::For { names, iter, body } => {
                self.expr(iter, env);
                for n in names {
                    env.insert(n.clone(), Class::Unknown);
                }
                self.block(body, env);
                Class::Other
            }
            ExprKind::While { names, cond, body } => {
                self.expr(cond, env);
                for n in names {
                    env.insert(n.clone(), Class::Unknown);
                }
                self.block(body, env);
                Class::Other
            }
            ExprKind::Loop { body } => {
                self.block(body, env);
                Class::Unknown
            }
            ExprKind::Closure { names, body } => {
                for n in names {
                    env.insert(n.clone(), Class::Unknown);
                }
                self.expr(body, env);
                Class::Other
            }
            ExprKind::StructLit { path, fields, rest } => {
                for (_, v) in fields {
                    self.expr(v, env);
                }
                if let Some(r) = rest {
                    self.expr(r, env);
                }
                path.last()
                    .map(|p| class_of_ty(p, None, self.index))
                    .unwrap_or(Class::Unknown)
            }
            ExprKind::Range { lo, hi } => {
                if let Some(e) = lo {
                    self.expr(e, env);
                }
                if let Some(e) = hi {
                    self.expr(e, env);
                }
                Class::Other
            }
            ExprKind::Return(x) | ExprKind::Break(x) => {
                if let Some(e) = x {
                    self.expr(e, env);
                }
                Class::Other
            }
            ExprKind::Opaque => Class::Unknown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast;
    use crate::lexer;

    fn classify_src(src: &str) -> (File, Classified, SymbolIndex) {
        let toks = lexer::lex(src);
        let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
        let file = ast::parse(&toks, &code);
        let mut index = SymbolIndex::default();
        index.add_file(&file);
        let classified = classify(&file, &index);
        (file, classified, index)
    }

    /// Find the class of the first expression matching a predicate.
    fn find_class(
        file: &File,
        classified: &Classified,
        pred: &dyn Fn(&Expr) -> bool,
    ) -> Option<Class> {
        struct Finder<'a> {
            pred: &'a dyn Fn(&Expr) -> bool,
            found: Option<u32>,
        }
        impl ast::Visit for Finder<'_> {
            fn expr(&mut self, e: &Expr) {
                if self.found.is_none() && (self.pred)(e) {
                    self.found = Some(e.id);
                }
            }
        }
        let mut f = Finder { pred, found: None };
        for func in &file.functions {
            if let Some(b) = &func.body {
                ast::visit_block(b, &mut f);
            }
        }
        f.found.map(|id| classified.classes[id as usize].clone())
    }

    #[test]
    fn struct_fields_resolve_through_self() {
        let src = "\
struct Tcb { snd_nxt: u32, done: bool }
impl Tcb {
    fn f(&self) -> bool { self.snd_nxt < 5 }
    fn g(&self) -> bool { self.done }
}
";
        let (file, cl, _) = classify_src(src);
        let seq = find_class(
            &file,
            &cl,
            &|e| matches!(&e.kind, ExprKind::Field { name, .. } if name == "snd_nxt"),
        );
        assert_eq!(seq, Some(Class::Seq));
        let done = find_class(
            &file,
            &cl,
            &|e| matches!(&e.kind, ExprKind::Field { name, .. } if name == "done"),
        );
        assert_eq!(done, Some(Class::Bool));
    }

    #[test]
    fn bool_ack_flag_is_not_a_sequence_number() {
        // `TcpFlags.ack: bool` must not classify as Seq just by its name.
        let src = "\
struct TcpFlags { ack: bool }
impl TcpFlags {
    fn bits(&self) -> u8 { (self.ack as u8) << 4 }
}
";
        let (file, cl, _) = classify_src(src);
        let ack = find_class(
            &file,
            &cl,
            &|e| matches!(&e.kind, ExprKind::Field { name, .. } if name == "ack"),
        );
        assert_eq!(ack, Some(Class::Bool));
    }

    #[test]
    fn let_bindings_flow_classes() {
        let src = "\
struct S { seq: u32 }
fn f(s: &S, data: &[u8]) {
    let x = s.seq;
    let v = data.to_vec();
    let n = v.len();
    let small = n as u8;
    (x, v, n, small);
}
";
        let (file, cl, _) = classify_src(src);
        let x = find_class(
            &file,
            &cl,
            &|e| matches!(&e.kind, ExprKind::Path(p) if p == &vec!["x".to_string()]),
        );
        assert_eq!(x, Some(Class::Seq));
        let v = find_class(
            &file,
            &cl,
            &|e| matches!(&e.kind, ExprKind::Path(p) if p == &vec!["v".to_string()]),
        );
        assert_eq!(v, Some(Class::ByteBuf));
        let n = find_class(
            &file,
            &cl,
            &|e| matches!(&e.kind, ExprKind::Path(p) if p == &vec!["n".to_string()]),
        );
        assert_eq!(n, Some(Class::Int(64)));
    }

    #[test]
    fn wrapping_arithmetic_keeps_seq_class() {
        let src = "\
struct S { snd_una: u32 }
fn f(s: &S) -> u32 { s.snd_una.wrapping_add(1) }
";
        let (file, cl, _) = classify_src(src);
        let w = find_class(
            &file,
            &cl,
            &|e| matches!(&e.kind, ExprKind::MethodCall { name, .. } if name == "wrapping_add"),
        );
        assert_eq!(w, Some(Class::Seq));
    }

    #[test]
    fn result_fns_require_unanimous_signatures() {
        let src = "\
fn a() -> Result<u32, String> { Ok(1) }
fn b() -> u32 { 1 }
mod m { fn a() -> u32 { 2 } }
";
        let (_, _, index) = classify_src(src);
        assert!(!index.is_result_fn("a"), "ambiguous `a` must not count");
        assert!(!index.is_result_fn("b"));
    }

    #[test]
    fn io_result_aliases_count_as_result() {
        assert!(is_result_ty("Result<(), Error>"));
        assert!(is_result_ty("io::Result<Vec<String>>"));
        assert!(is_result_ty("std::io::Result<()>"));
        assert!(!is_result_ty("Option<u32>"));
        assert!(!is_result_ty("ResultSet"));
    }

    #[test]
    fn declared_type_beats_initializer() {
        let src = "fn f() { let n: u16 = g(); n; }";
        let (file, cl, _) = classify_src(src);
        let n = find_class(
            &file,
            &cl,
            &|e| matches!(&e.kind, ExprKind::Path(p) if p == &vec!["n".to_string()]),
        );
        assert_eq!(n, Some(Class::Int(16)));
    }

    #[test]
    fn unsuffixed_literals_have_unknown_width() {
        let src = "fn f() { let x = 5; x; }";
        let (file, cl, _) = classify_src(src);
        let x = find_class(
            &file,
            &cl,
            &|e| matches!(&e.kind, ExprKind::Path(p) if p == &vec!["x".to_string()]),
        );
        assert_eq!(x, Some(Class::Int(0)));
        assert_eq!(Class::Int(0).int_width(), None);
    }

    #[test]
    fn byte_slices_and_arrays_are_byte_buffers() {
        let mut idx = SymbolIndex::default();
        idx.structs.insert("Frame".into(), BTreeMap::new());
        assert_eq!(class_of_ty("&[u8]", None, &idx), Class::ByteBuf);
        assert_eq!(class_of_ty("Vec<u8>", None, &idx), Class::ByteBuf);
        assert_eq!(class_of_ty("[u8; 6]", None, &idx), Class::ByteBuf);
        assert_eq!(
            class_of_ty("&mut Frame", None, &idx),
            Class::Struct("Frame".into())
        );
        assert_eq!(
            class_of_ty("&TcpSegment", None, &idx),
            Class::Struct("TcpSegment".into())
        );
    }
}
