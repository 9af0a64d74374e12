//! A lightweight recursive-descent / Pratt parser over the lexer.
//!
//! This is deliberately *not* a full Rust parser: it recovers items
//! (functions with signatures, struct field tables, impl blocks for `self`
//! resolution), statements (`let` with patterns, types and initializers)
//! and expressions with operator precedence — just enough structure for the
//! shape-sensitive rules (C001/A001/R001/N001) to see receivers, operands
//! and cast targets instead of raw tokens. Anything it does not understand
//! degrades to [`ExprKind::Opaque`] and parsing continues: the analyzer
//! must keep producing diagnostics for the rest of the file, exactly like
//! the lexer's total-function guarantee.
//!
//! Every expression carries the code-token indices it spans (`start_ti`,
//! `end_ti`) and a head token (`ti`) that diagnostics anchor to, plus a
//! dense [`ExprId`] so the semantic pass ([`crate::sema`]) can attach a
//! type class to each node without back-pointers.

use crate::lexer::{Token, TokenKind};
use std::collections::BTreeMap;

/// Dense per-file expression identifier (index into the class table).
pub type ExprId = u32;

/// A parsed file: every `fn` (at any nesting), plus a struct field table
/// used to resolve `self.field` / `binding.field` types.
#[derive(Debug, Default)]
pub struct File {
    /// Every function found, including methods and nested fns.
    pub functions: Vec<Function>,
    /// struct name → (field name → declared type text).
    pub structs: BTreeMap<String, BTreeMap<String, String>>,
    /// Number of expression ids allocated (size of the class table).
    pub expr_count: u32,
}

/// One function with its signature and (optionally) parsed body.
#[derive(Debug)]
pub struct Function {
    /// The function's own name.
    pub name: String,
    /// The `impl` type the function sits in, if any (resolves `self`).
    pub self_ty: Option<String>,
    /// Parameters as `(name, declared type text)`; `self` is excluded.
    pub params: Vec<(String, String)>,
    /// Return type text, if declared.
    pub ret: Option<String>,
    /// The body; `None` for trait-method signatures.
    pub body: Option<Block>,
    /// Code-token index of the name (for span queries).
    pub name_ti: usize,
}

/// A `{ … }` statement list.
#[derive(Debug, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
}

/// A statement. Items nested in blocks are hoisted into
/// [`File::functions`]/[`File::structs`] rather than kept in place.
#[derive(Debug)]
pub enum Stmt {
    /// `let PAT (: TY)? (= INIT)?;`
    Let {
        /// Identifiers the pattern binds.
        names: Vec<String>,
        /// True when the pattern is exactly `_` (a deliberate discard).
        underscore: bool,
        /// Declared type text, if any.
        ty: Option<String>,
        init: Option<Expr>,
        /// The diverging `else { … }` block of a `let … else`.
        els: Option<Block>,
        /// Code-token index of the `let` keyword.
        let_ti: usize,
        /// Code-token index of the terminating `;`, when present.
        semi_ti: Option<usize>,
    },
    /// An expression statement; `semi` records the trailing `;`.
    Expr { expr: Expr, semi: bool },
}

/// An expression node with its token span.
#[derive(Debug)]
pub struct Expr {
    pub id: ExprId,
    /// Head token (operator, method name, …) — the diagnostic anchor.
    pub ti: usize,
    /// First code token of the expression.
    pub start_ti: usize,
    /// Last code token of the expression.
    pub end_ti: usize,
    pub kind: ExprKind,
}

/// Binary / compound-assignment operators the rules care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    BitAnd,
    BitOr,
    BitXor,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    And,
    Or,
}

impl BinOp {
    /// Is this one of the four ordering comparisons?
    pub fn is_ordering(self) -> bool {
        matches!(self, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
    }

    /// Is this wrap-sensitive arithmetic (`+`, `-`, `*`)?
    pub fn is_wrap_arith(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Sub | BinOp::Mul)
    }

    /// Source spelling, for diagnostics.
    pub fn text(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// Literal classes (only integer width matters to the rules).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LitKind {
    /// Integer literal; width in bits from the suffix, 0 when unsuffixed.
    Int(u16),
    Bool,
    Str,
    Char,
    Float,
}

/// One `match` arm: the names its pattern binds and the body.
#[derive(Debug)]
pub struct Arm {
    pub names: Vec<String>,
    pub body: Expr,
}

/// Expression shapes. Unrecognised syntax becomes `Opaque` and parsing
/// continues past it.
#[derive(Debug)]
pub enum ExprKind {
    /// `a::b::c` (a single identifier is a one-segment path).
    Path(Vec<String>),
    Field {
        base: Box<Expr>,
        name: String,
    },
    MethodCall {
        base: Box<Expr>,
        name: String,
        args: Vec<Expr>,
    },
    Call {
        callee: Box<Expr>,
        args: Vec<Expr>,
    },
    MacroCall {
        name: String,
        args: Vec<Expr>,
    },
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// `lhs = rhs` or `lhs op= rhs` (`op` is `Some` for compound forms).
    Assign {
        op: Option<BinOp>,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    Cast {
        base: Box<Expr>,
        /// Target type text (e.g. `u16`).
        ty: String,
        /// Code-token index of the last type token (for fix spans).
        ty_end_ti: usize,
    },
    Unary {
        op: char,
        base: Box<Expr>,
    },
    Index {
        base: Box<Expr>,
        index: Box<Expr>,
    },
    Try {
        base: Box<Expr>,
    },
    Lit(LitKind),
    Tuple(Vec<Expr>),
    Array(Vec<Expr>),
    Block(Block),
    If {
        /// Names bound by an `if let` pattern, if any.
        names: Vec<String>,
        cond: Box<Expr>,
        then: Block,
        els: Option<Box<Expr>>,
    },
    Match {
        scrut: Box<Expr>,
        arms: Vec<Arm>,
    },
    For {
        names: Vec<String>,
        iter: Box<Expr>,
        body: Block,
    },
    While {
        /// Names bound by a `while let` pattern, if any.
        names: Vec<String>,
        cond: Box<Expr>,
        body: Block,
    },
    Loop {
        body: Block,
    },
    Closure {
        names: Vec<String>,
        body: Box<Expr>,
    },
    StructLit {
        path: Vec<String>,
        fields: Vec<(String, Expr)>,
        rest: Option<Box<Expr>>,
    },
    Range {
        lo: Option<Box<Expr>>,
        hi: Option<Box<Expr>>,
    },
    Return(Option<Box<Expr>>),
    Break(Option<Box<Expr>>),
    Opaque,
}

/// Parse a token stream (with its non-comment index) into a [`File`].
pub fn parse(tokens: &[Token], code: &[usize]) -> File {
    let mut p = Parser {
        toks: tokens,
        code,
        pos: 0,
        file: File::default(),
        next_id: 0,
    };
    let end = p.code.len();
    p.items(end, None);
    p.file.expr_count = p.next_id;
    p.file
}

/// Visitor over every expression and statement in a block tree, pre-order.
pub trait Visit {
    fn expr(&mut self, _e: &Expr) {}
    fn stmt(&mut self, _s: &Stmt) {}
}

/// Walk a block, invoking the visitor on every statement and expression.
pub fn visit_block(b: &Block, v: &mut dyn Visit) {
    for s in &b.stmts {
        v.stmt(s);
        match s {
            Stmt::Let { init, els, .. } => {
                if let Some(e) = init {
                    visit_expr(e, v);
                }
                if let Some(b) = els {
                    visit_block(b, v);
                }
            }
            Stmt::Expr { expr, .. } => visit_expr(expr, v),
        }
    }
}

/// Walk one expression tree, invoking the visitor on every node.
pub fn visit_expr(e: &Expr, v: &mut dyn Visit) {
    v.expr(e);
    match &e.kind {
        ExprKind::Path(_) | ExprKind::Lit(_) | ExprKind::Opaque => {}
        ExprKind::Field { base, .. }
        | ExprKind::Unary { base, .. }
        | ExprKind::Try { base }
        | ExprKind::Cast { base, .. } => visit_expr(base, v),
        ExprKind::MethodCall { base, args, .. } => {
            visit_expr(base, v);
            for a in args {
                visit_expr(a, v);
            }
        }
        ExprKind::Call { callee, args } => {
            visit_expr(callee, v);
            for a in args {
                visit_expr(a, v);
            }
        }
        ExprKind::MacroCall { args, .. } => {
            for a in args {
                visit_expr(a, v);
            }
        }
        ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
            visit_expr(lhs, v);
            visit_expr(rhs, v);
        }
        ExprKind::Index { base, index } => {
            visit_expr(base, v);
            visit_expr(index, v);
        }
        ExprKind::Tuple(xs) | ExprKind::Array(xs) => {
            for x in xs {
                visit_expr(x, v);
            }
        }
        ExprKind::Block(b) => visit_block(b, v),
        ExprKind::If {
            cond, then, els, ..
        } => {
            visit_expr(cond, v);
            visit_block(then, v);
            if let Some(e) = els {
                visit_expr(e, v);
            }
        }
        ExprKind::Match { scrut, arms } => {
            visit_expr(scrut, v);
            for a in arms {
                visit_expr(&a.body, v);
            }
        }
        ExprKind::For { iter, body, .. } => {
            visit_expr(iter, v);
            visit_block(body, v);
        }
        ExprKind::While { cond, body, .. } => {
            visit_expr(cond, v);
            visit_block(body, v);
        }
        ExprKind::Loop { body } => visit_block(body, v),
        ExprKind::Closure { body, .. } => visit_expr(body, v),
        ExprKind::StructLit { fields, rest, .. } => {
            for (_, e) in fields {
                visit_expr(e, v);
            }
            if let Some(r) = rest {
                visit_expr(r, v);
            }
        }
        ExprKind::Range { lo, hi } => {
            if let Some(e) = lo {
                visit_expr(e, v);
            }
            if let Some(e) = hi {
                visit_expr(e, v);
            }
        }
        ExprKind::Return(x) | ExprKind::Break(x) => {
            if let Some(e) = x {
                visit_expr(e, v);
            }
        }
    }
}

const ITEM_KEYWORDS: &[&str] = &[
    "fn",
    "struct",
    "enum",
    "impl",
    "trait",
    "mod",
    "use",
    "static",
    "type",
    "macro_rules",
    "extern",
];

struct Parser<'a> {
    toks: &'a [Token],
    code: &'a [usize],
    pos: usize,
    file: File,
    next_id: ExprId,
}

impl<'a> Parser<'a> {
    // ---- token helpers -------------------------------------------------

    fn at(&self, i: usize) -> Option<&'a Token> {
        self.code.get(i).map(|&k| &self.toks[k])
    }

    fn cur(&self) -> Option<&'a Token> {
        self.at(self.pos)
    }

    fn is_p(&self, i: usize, c: char) -> bool {
        self.at(i).is_some_and(|t| t.is_punct(c))
    }

    fn is_kw(&self, i: usize, s: &str) -> bool {
        self.at(i).is_some_and(|t| t.is_ident(s))
    }

    fn bump(&mut self) -> usize {
        let i = self.pos;
        self.pos += 1;
        i
    }

    /// Are code tokens `i` and `i + 1` adjacent in the source (no gap)?
    /// Used to reassemble multi-character operators from single puncts.
    fn glued(&self, i: usize) -> bool {
        match (self.at(i), self.at(i + 1)) {
            (Some(a), Some(b)) => {
                a.line == b.line && a.col + a.text.chars().count() as u32 == b.col
            }
            _ => false,
        }
    }

    /// Is token `i` the `>` half of a `->` or `=>` arrow?
    fn arrow_tail(&self, i: usize) -> bool {
        i > 0
            && self.is_p(i, '>')
            && (self.is_p(i - 1, '-') || self.is_p(i - 1, '='))
            && self.glued(i - 1)
    }

    fn new_expr(&mut self, ti: usize, start: usize, end: usize, kind: ExprKind) -> Expr {
        let id = self.next_id;
        self.next_id += 1;
        Expr {
            id,
            ti,
            start_ti: start,
            end_ti: end,
            kind,
        }
    }

    // ---- generic skippers ----------------------------------------------

    /// Skip a balanced `< … >` generic-argument list starting at `pos`.
    fn skip_generics(&mut self) {
        if !self.is_p(self.pos, '<') {
            return;
        }
        let mut depth = 0i32;
        while let Some(t) = self.cur() {
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') && !self.arrow_tail(self.pos) {
                depth -= 1;
                if depth == 0 {
                    self.bump();
                    return;
                }
            } else if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                self.skip_bracketed();
                continue;
            }
            self.bump();
        }
    }

    /// Skip a balanced `( … )` / `[ … ]` / `{ … }` group starting at `pos`.
    fn skip_bracketed(&mut self) {
        let mut depth = 0i32;
        while let Some(t) = self.cur() {
            match t.text.as_bytes().first() {
                Some(b'(') | Some(b'[') | Some(b'{') if t.kind == TokenKind::Punct => depth += 1,
                Some(b')') | Some(b']') | Some(b'}') if t.kind == TokenKind::Punct => {
                    depth -= 1;
                    if depth == 0 {
                        self.bump();
                        return;
                    }
                }
                _ => {}
            }
            self.bump();
        }
    }

    /// Skip an attribute `#[ … ]` (pos at `#`).
    fn skip_attr(&mut self) {
        self.bump(); // `#`
        if self.is_p(self.pos, '!') {
            self.bump();
        }
        if self.is_p(self.pos, '[') {
            self.skip_bracketed();
        }
    }

    /// Skip to just past the next `;` at bracket depth 0.
    fn skip_to_semi(&mut self) {
        let mut depth = 0i32;
        while let Some(t) = self.cur() {
            if t.kind == TokenKind::Punct {
                match t.text.as_bytes().first() {
                    Some(b'(') | Some(b'[') | Some(b'{') => depth += 1,
                    Some(b')') | Some(b']') | Some(b'}') => depth -= 1,
                    Some(b';') if depth <= 0 => {
                        self.bump();
                        return;
                    }
                    _ => {}
                }
            }
            self.bump();
        }
    }

    /// Skip an item body: either `{ … }` or a terminating `;`, whichever
    /// comes first at depth 0.
    fn skip_item_body(&mut self) {
        while let Some(t) = self.cur() {
            if t.is_punct('{') {
                self.skip_bracketed();
                return;
            }
            if t.is_punct(';') {
                self.bump();
                return;
            }
            if t.is_punct('(') || t.is_punct('[') {
                self.skip_bracketed();
                continue;
            }
            self.bump();
        }
    }

    // ---- type collection -----------------------------------------------

    /// Collect type tokens until a stopping punct at depth 0 (`,`, `;`,
    /// `=`, `)`, `{`, `>` closing an outer list). Returns normalized text.
    fn collect_ty(&mut self, stop: &[char]) -> String {
        let mut parts: Vec<String> = Vec::new();
        let mut prev_ident = false;
        let mut angle = 0i32;
        let mut paren = 0i32;
        while let Some(t) = self.cur() {
            if t.kind == TokenKind::Punct {
                let c = t.text.chars().next().unwrap_or(' ');
                if angle == 0 && paren == 0 && stop.contains(&c) && !self.arrow_tail(self.pos) {
                    // `->` inside an fn-pointer type must not stop on `>`.
                    if !(c == '>' && angle > 0) {
                        break;
                    }
                }
                match c {
                    '<' => angle += 1,
                    '>' => {
                        if self.arrow_tail(self.pos) {
                            // part of `->`: keep going.
                        } else {
                            if angle == 0 {
                                break;
                            }
                            angle -= 1;
                        }
                    }
                    '(' | '[' => paren += 1,
                    ')' | ']' => {
                        if paren == 0 {
                            break;
                        }
                        paren -= 1;
                    }
                    // The `;` of an array type `[T; N]` is inside brackets.
                    '{' | ';' if paren == 0 => break,
                    _ => {}
                }
            }
            let is_ident = t.kind == TokenKind::Ident;
            if is_ident && prev_ident {
                parts.push(" ".to_string());
            }
            if t.kind == TokenKind::Lifetime {
                parts.push(format!("'{}", t.text));
            } else {
                parts.push(t.text.clone());
            }
            prev_ident = is_ident;
            self.bump();
        }
        parts.concat()
    }

    // ---- pattern collection --------------------------------------------

    /// Collect the identifiers a pattern binds, scanning until one of the
    /// `stop` puncts or the ident `stop_kw` appears at depth 0. Constructor
    /// names (followed by `(`/`{`/`::`) and keywords are excluded.
    fn collect_pat(&mut self, stop: &[char], stop_kw: Option<&str>) -> (Vec<String>, bool) {
        let mut names = Vec::new();
        let mut depth = 0i32;
        let mut token_count = 0usize;
        let mut lone_underscore = false;
        while let Some(t) = self.cur() {
            if t.kind == TokenKind::Punct {
                let c = t.text.chars().next().unwrap_or(' ');
                if depth == 0 && stop.contains(&c) {
                    // `::` is not the single-colon type separator.
                    if c == ':' && self.is_p(self.pos + 1, ':') {
                        self.bump();
                        self.bump();
                        token_count += 2;
                        continue;
                    }
                    break;
                }
                match c {
                    '(' | '[' | '{' | '<' => depth += 1,
                    ')' | ']' | '}' => depth -= 1,
                    '>' if !self.arrow_tail(self.pos) => depth -= 1,
                    _ => {}
                }
                self.bump();
                token_count += 1;
                continue;
            }
            if depth == 0 {
                if let Some(kw) = stop_kw {
                    if t.is_ident(kw) {
                        break;
                    }
                }
            }
            if t.kind == TokenKind::Ident {
                let name = t.text.clone();
                let i = self.bump();
                token_count += 1;
                if name == "_" {
                    lone_underscore = token_count == 1;
                    continue;
                }
                if matches!(
                    name.as_str(),
                    "mut" | "ref" | "box" | "if" | "true" | "false"
                ) {
                    continue;
                }
                // Constructor or path segment, not a binding.
                if self.is_p(i + 1, '(') || self.is_p(i + 1, '{') {
                    continue;
                }
                if self.is_p(i + 1, ':') && self.is_p(i + 2, ':') {
                    continue;
                }
                names.push(name);
                continue;
            }
            self.bump();
            token_count += 1;
        }
        let lone = lone_underscore && names.is_empty();
        (names, lone)
    }

    // ---- items ----------------------------------------------------------

    /// Parse items until code index `end` (exclusive).
    fn items(&mut self, end: usize, self_ty: Option<&str>) {
        while self.pos < end {
            let Some(t) = self.cur() else { break };
            if t.is_punct('#') {
                self.skip_attr();
                continue;
            }
            if t.kind != TokenKind::Ident {
                if t.is_punct('{') {
                    self.skip_bracketed();
                } else {
                    self.bump();
                }
                continue;
            }
            match t.text.as_str() {
                "fn" => self.parse_fn(self_ty),
                "struct" => self.parse_struct(),
                "impl" => self.parse_impl(),
                "mod" | "trait" => {
                    self.bump();
                    // `mod name;` or `mod name { items }`.
                    while let Some(t2) = self.cur() {
                        if t2.is_punct(';') {
                            self.bump();
                            break;
                        }
                        if t2.is_punct('{') {
                            self.bump();
                            let inner_end = self.matching_brace_end();
                            self.items(inner_end, None);
                            if self.is_p(self.pos, '}') {
                                self.bump();
                            }
                            break;
                        }
                        self.bump();
                    }
                }
                "enum" | "macro_rules" | "extern" => {
                    self.bump();
                    self.skip_item_body();
                }
                "use" | "static" | "type" => {
                    self.bump();
                    self.skip_to_semi();
                }
                "const" => {
                    // `const fn` is a function; `const NAME: T = …;` is not.
                    if self.is_kw(self.pos + 1, "fn") {
                        self.bump();
                        self.parse_fn(self_ty);
                    } else {
                        self.bump();
                        self.skip_to_semi();
                    }
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    /// With `pos` just past a `{`, find the code index of its matching `}`.
    fn matching_brace_end(&self) -> usize {
        let mut depth = 1i32;
        let mut i = self.pos;
        while let Some(t) = self.at(i) {
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            i += 1;
        }
        self.code.len()
    }

    fn parse_struct(&mut self) {
        self.bump(); // `struct`
        let Some(name_tok) = self.cur() else { return };
        if name_tok.kind != TokenKind::Ident {
            return;
        }
        let name = name_tok.text.clone();
        self.bump();
        self.skip_generics();
        if self.is_p(self.pos, '{') {
            self.bump();
            let mut fields = BTreeMap::new();
            // `vis? name : TYPE ,` pairs until `}`.
            while let Some(t) = self.cur() {
                if t.is_punct('}') {
                    self.bump();
                    break;
                }
                if t.is_punct('#') {
                    self.skip_attr();
                    continue;
                }
                if t.kind == TokenKind::Ident {
                    if t.text == "pub" {
                        self.bump();
                        if self.is_p(self.pos, '(') {
                            self.skip_bracketed();
                        }
                        continue;
                    }
                    let fname = t.text.clone();
                    let i = self.bump();
                    if self.is_p(i + 1, ':') && !self.is_p(i + 2, ':') {
                        self.bump(); // `:`
                        let ty = self.collect_ty(&[',', '}']);
                        fields.insert(fname, ty);
                    }
                    continue;
                }
                self.bump();
            }
            self.file.structs.insert(name, fields);
        } else {
            // Tuple struct or unit struct: no named fields to record.
            self.skip_item_body();
        }
    }

    fn parse_impl(&mut self) {
        self.bump(); // `impl`
        self.skip_generics();
        // Collect path segments until `{`, `for`, or `where`; if a `for`
        // appears, the segment after it is the implementing type.
        let mut last_seg: Option<String> = None;
        while let Some(t) = self.cur() {
            if t.is_punct('{') || t.is_ident("where") {
                break;
            }
            if t.is_ident("for") {
                self.bump();
                last_seg = None;
                continue;
            }
            if t.kind == TokenKind::Ident {
                last_seg = Some(t.text.clone());
                self.bump();
                self.skip_generics();
                continue;
            }
            self.bump();
        }
        while let Some(t) = self.cur() {
            if t.is_punct('{') {
                break;
            }
            self.bump();
        }
        if self.is_p(self.pos, '{') {
            self.bump();
            let inner_end = self.matching_brace_end();
            let ty = last_seg;
            self.items(inner_end, ty.as_deref());
            if self.is_p(self.pos, '}') {
                self.bump();
            }
        }
    }

    fn parse_fn(&mut self, self_ty: Option<&str>) {
        self.bump(); // `fn`
        let Some(name_tok) = self.cur() else { return };
        if name_tok.kind != TokenKind::Ident {
            return;
        }
        let name = name_tok.text.clone();
        let name_ti = self.bump();
        self.skip_generics();
        let mut params = Vec::new();
        if self.is_p(self.pos, '(') {
            self.bump();
            while let Some(t) = self.cur() {
                if t.is_punct(')') {
                    self.bump();
                    break;
                }
                if t.is_punct('#') {
                    self.skip_attr();
                    continue;
                }
                // One parameter: `pat : TYPE` or a `self` receiver.
                let (names, _) = self.collect_pat(&[':', ',', ')'], None);
                if self.is_p(self.pos, ':') && !self.is_p(self.pos + 1, ':') {
                    self.bump();
                    let ty = self.collect_ty(&[',', ')']);
                    if names.len() == 1 {
                        params.push((names[0].clone(), ty));
                    }
                }
                if self.is_p(self.pos, ',') {
                    self.bump();
                }
            }
        }
        let mut ret = None;
        if self.is_p(self.pos, '-') && self.is_p(self.pos + 1, '>') && self.glued(self.pos) {
            self.bump();
            self.bump();
            let ty = self.collect_ty(&['{', ';', ',']);
            if !ty.is_empty() {
                ret = Some(ty);
            }
        }
        if self.is_kw(self.pos, "where") {
            while let Some(t) = self.cur() {
                if t.is_punct('{') || t.is_punct(';') {
                    break;
                }
                if t.is_punct('<') {
                    self.skip_generics();
                    continue;
                }
                self.bump();
            }
        }
        let body = if self.is_p(self.pos, '{') {
            Some(self.parse_block())
        } else {
            if self.is_p(self.pos, ';') {
                self.bump();
            }
            None
        };
        self.file.functions.push(Function {
            name,
            self_ty: self_ty.map(|s| s.to_string()),
            params,
            ret,
            body,
            name_ti,
        });
    }

    // ---- statements -----------------------------------------------------

    /// Parse a `{ … }` block (pos at `{`).
    fn parse_block(&mut self) -> Block {
        let mut block = Block::default();
        if !self.is_p(self.pos, '{') {
            return block;
        }
        self.bump();
        while let Some(t) = self.cur() {
            if t.is_punct('}') {
                self.bump();
                break;
            }
            if t.is_punct(';') {
                self.bump();
                continue;
            }
            if t.is_punct('#') {
                self.skip_attr();
                continue;
            }
            if t.is_ident("let") {
                let stmt = self.parse_let();
                block.stmts.push(stmt);
                continue;
            }
            if t.kind == TokenKind::Ident && ITEM_KEYWORDS.contains(&t.text.as_str()) {
                // Items in blocks are hoisted (fn/struct) or skipped.
                let before = self.pos;
                match t.text.as_str() {
                    "fn" => self.parse_fn(None),
                    "struct" => self.parse_struct(),
                    "impl" => self.parse_impl(),
                    "use" | "static" | "type" => {
                        self.bump();
                        self.skip_to_semi();
                    }
                    _ => {
                        self.bump();
                        self.skip_item_body();
                    }
                }
                if self.pos == before {
                    self.bump();
                }
                continue;
            }
            if t.is_ident("const") && !self.is_kw(self.pos + 1, "fn") {
                self.bump();
                self.skip_to_semi();
                continue;
            }
            let before = self.pos;
            let expr = self.parse_expr(0, false);
            let semi = self.is_p(self.pos, ';');
            if semi {
                self.bump();
            }
            block.stmts.push(Stmt::Expr { expr, semi });
            if self.pos == before {
                // Hard guarantee of progress on unparseable input.
                self.bump();
            }
        }
        block
    }

    fn parse_let(&mut self) -> Stmt {
        let let_ti = self.bump(); // `let`
        let (names, underscore) = self.collect_pat(&[':', '=', ';'], None);
        let mut ty = None;
        if self.is_p(self.pos, ':') && !self.is_p(self.pos + 1, ':') {
            self.bump();
            let t = self.collect_ty(&['=', ';']);
            if !t.is_empty() {
                ty = Some(t);
            }
        }
        let mut init = None;
        if self.is_p(self.pos, '=') {
            self.bump();
            init = Some(self.parse_expr(0, false));
        }
        // `let … else { … }` diverging alternative.
        let els = if self.is_kw(self.pos, "else") {
            self.bump();
            if self.is_p(self.pos, '{') {
                Some(self.parse_block())
            } else {
                None
            }
        } else {
            None
        };
        let semi_ti = if self.is_p(self.pos, ';') {
            Some(self.bump())
        } else {
            None
        };
        Stmt::Let {
            names,
            underscore,
            ty,
            init,
            els,
            let_ti,
            semi_ti,
        }
    }

    // ---- expressions ----------------------------------------------------

    /// Pratt parse with a minimum binding power. `no_struct` disables the
    /// `Path { … }` struct-literal form (condition / scrutinee position).
    fn parse_expr(&mut self, min_bp: u8, no_struct: bool) -> Expr {
        let mut lhs = self.parse_unary(no_struct);
        while let Some((op, ntoks, bp)) = self.peek_binop() {
            if bp < min_bp {
                break;
            }
            let op_ti = self.pos;
            for _ in 0..ntoks {
                self.bump();
            }
            match op {
                PrattOp::Bin(b) => {
                    let rhs = self.parse_expr(bp + 1, no_struct);
                    let (s, e) = (lhs.start_ti, rhs.end_ti);
                    lhs = self.new_expr(
                        op_ti,
                        s,
                        e,
                        ExprKind::Binary {
                            op: b,
                            lhs: Box::new(lhs),
                            rhs: Box::new(rhs),
                        },
                    );
                }
                PrattOp::Assign(b) => {
                    let rhs = self.parse_expr(bp, no_struct); // right assoc
                    let (s, e) = (lhs.start_ti, rhs.end_ti);
                    lhs = self.new_expr(
                        op_ti,
                        s,
                        e,
                        ExprKind::Assign {
                            op: b,
                            lhs: Box::new(lhs),
                            rhs: Box::new(rhs),
                        },
                    );
                }
                PrattOp::Range => {
                    let hi = if self.expr_can_start(no_struct) {
                        Some(Box::new(self.parse_expr(bp + 1, no_struct)))
                    } else {
                        None
                    };
                    let s = lhs.start_ti;
                    let e = hi.as_ref().map_or(op_ti + ntoks - 1, |h| h.end_ti);
                    lhs = self.new_expr(
                        op_ti,
                        s,
                        e,
                        ExprKind::Range {
                            lo: Some(Box::new(lhs)),
                            hi,
                        },
                    );
                }
            }
        }
        lhs
    }

    /// Can the current token start an expression? (Used for open ranges.)
    fn expr_can_start(&self, _no_struct: bool) -> bool {
        match self.cur() {
            None => false,
            Some(t) => match t.kind {
                TokenKind::Ident
                | TokenKind::Number
                | TokenKind::Str
                | TokenKind::RawStr
                | TokenKind::Char => true,
                TokenKind::Punct => matches!(
                    t.text.chars().next().unwrap_or(' '),
                    '(' | '[' | '{' | '&' | '*' | '!' | '-' | '|'
                ),
                _ => false,
            },
        }
    }

    /// Peek a binary / assignment / range operator, greedily composing
    /// adjacent single-char puncts. Returns `(op, token count, bp)`.
    fn peek_binop(&self) -> Option<(PrattOp, usize, u8)> {
        let t = self.cur()?;
        if t.kind != TokenKind::Punct {
            return None;
        }
        let c0 = t.text.chars().next()?;
        let c1 = if self.glued(self.pos) {
            self.at(self.pos + 1)
                .filter(|t| t.kind == TokenKind::Punct)
                .and_then(|t| t.text.chars().next())
        } else {
            None
        };
        let c2 = if c1.is_some() && self.glued(self.pos + 1) {
            self.at(self.pos + 2)
                .filter(|t| t.kind == TokenKind::Punct)
                .and_then(|t| t.text.chars().next())
        } else {
            None
        };
        // Three-char forms first.
        match (c0, c1, c2) {
            ('<', Some('<'), Some('=')) => {
                return Some((PrattOp::Assign(Some(BinOp::Shl)), 3, 1));
            }
            ('>', Some('>'), Some('=')) => {
                return Some((PrattOp::Assign(Some(BinOp::Shr)), 3, 1));
            }
            ('.', Some('.'), Some('=')) => return Some((PrattOp::Range, 3, 2)),
            _ => {}
        }
        match (c0, c1) {
            ('=', Some('=')) => Some((PrattOp::Bin(BinOp::Eq), 2, 5)),
            ('!', Some('=')) => Some((PrattOp::Bin(BinOp::Ne), 2, 5)),
            ('<', Some('=')) => Some((PrattOp::Bin(BinOp::Le), 2, 5)),
            ('>', Some('=')) => Some((PrattOp::Bin(BinOp::Ge), 2, 5)),
            ('&', Some('&')) => Some((PrattOp::Bin(BinOp::And), 2, 4)),
            ('|', Some('|')) => Some((PrattOp::Bin(BinOp::Or), 2, 3)),
            ('<', Some('<')) => Some((PrattOp::Bin(BinOp::Shl), 2, 9)),
            ('>', Some('>')) => Some((PrattOp::Bin(BinOp::Shr), 2, 9)),
            ('+', Some('=')) => Some((PrattOp::Assign(Some(BinOp::Add)), 2, 1)),
            ('-', Some('=')) => Some((PrattOp::Assign(Some(BinOp::Sub)), 2, 1)),
            ('*', Some('=')) => Some((PrattOp::Assign(Some(BinOp::Mul)), 2, 1)),
            ('/', Some('=')) => Some((PrattOp::Assign(Some(BinOp::Div)), 2, 1)),
            ('%', Some('=')) => Some((PrattOp::Assign(Some(BinOp::Rem)), 2, 1)),
            ('&', Some('=')) => Some((PrattOp::Assign(Some(BinOp::BitAnd)), 2, 1)),
            ('|', Some('=')) => Some((PrattOp::Assign(Some(BinOp::BitOr)), 2, 1)),
            ('^', Some('=')) => Some((PrattOp::Assign(Some(BinOp::BitXor)), 2, 1)),
            ('.', Some('.')) => Some((PrattOp::Range, 2, 2)),
            ('=', Some('>')) => None, // match-arm arrow terminates the expr
            ('=', _) => Some((PrattOp::Assign(None), 1, 1)),
            ('<', _) => Some((PrattOp::Bin(BinOp::Lt), 1, 5)),
            ('>', _) => Some((PrattOp::Bin(BinOp::Gt), 1, 5)),
            ('+', _) => Some((PrattOp::Bin(BinOp::Add), 1, 10)),
            ('-', _) => Some((PrattOp::Bin(BinOp::Sub), 1, 10)),
            ('*', _) => Some((PrattOp::Bin(BinOp::Mul), 1, 11)),
            ('/', _) => Some((PrattOp::Bin(BinOp::Div), 1, 11)),
            ('%', _) => Some((PrattOp::Bin(BinOp::Rem), 1, 11)),
            ('^', _) => Some((PrattOp::Bin(BinOp::BitXor), 1, 7)),
            ('&', _) => Some((PrattOp::Bin(BinOp::BitAnd), 1, 8)),
            ('|', _) => Some((PrattOp::Bin(BinOp::BitOr), 1, 6)),
            _ => None,
        }
    }

    fn parse_unary(&mut self, no_struct: bool) -> Expr {
        let start = self.pos;
        let Some(t) = self.cur() else {
            return self.new_expr(start, start, start, ExprKind::Opaque);
        };
        // Prefix operators.
        if t.kind == TokenKind::Punct {
            let c = t.text.chars().next().unwrap_or(' ');
            match c {
                '&' | '*' | '!' | '-' => {
                    let op_ti = self.bump();
                    if c == '&' && self.is_kw(self.pos, "mut") {
                        self.bump();
                    }
                    let base = self.parse_unary(no_struct);
                    let end = base.end_ti;
                    let e = self.new_expr(
                        op_ti,
                        start,
                        end,
                        ExprKind::Unary {
                            op: c,
                            base: Box::new(base),
                        },
                    );
                    return self.postfix(e, no_struct);
                }
                '|' => return self.parse_closure(start, no_struct),
                '(' => {
                    self.bump();
                    let mut items = Vec::new();
                    let mut trailing_comma = false;
                    while let Some(t2) = self.cur() {
                        if t2.is_punct(')') {
                            break;
                        }
                        items.push(self.parse_expr(0, false));
                        if self.is_p(self.pos, ',') {
                            self.bump();
                            trailing_comma = true;
                        } else {
                            trailing_comma = false;
                            break;
                        }
                    }
                    let end = if self.is_p(self.pos, ')') {
                        self.bump()
                    } else {
                        self.pos.saturating_sub(1)
                    };
                    let e = if items.len() == 1 && !trailing_comma {
                        // A parenthesised expression: transparent grouping,
                        // but keep the paren span for fix edits.
                        let mut inner = items.pop().expect("len checked");
                        inner.start_ti = start;
                        inner.end_ti = end;
                        inner
                    } else {
                        self.new_expr(start, start, end, ExprKind::Tuple(items))
                    };
                    return self.postfix(e, no_struct);
                }
                '[' => {
                    self.bump();
                    let mut items = Vec::new();
                    while let Some(t2) = self.cur() {
                        if t2.is_punct(']') {
                            break;
                        }
                        items.push(self.parse_expr(0, false));
                        if self.is_p(self.pos, ',') || self.is_p(self.pos, ';') {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    let end = if self.is_p(self.pos, ']') {
                        self.bump()
                    } else {
                        self.pos.saturating_sub(1)
                    };
                    let e = self.new_expr(start, start, end, ExprKind::Array(items));
                    return self.postfix(e, no_struct);
                }
                '{' => {
                    let blk = self.parse_block();
                    let end = self.pos.saturating_sub(1);
                    let e = self.new_expr(start, start, end, ExprKind::Block(blk));
                    return self.postfix(e, no_struct);
                }
                '.' => {
                    // Prefix range `..x` / `..=x` / bare `..`.
                    if self.is_p(self.pos + 1, '.') {
                        self.bump();
                        self.bump();
                        if self.is_p(self.pos, '=') && self.glued(self.pos - 1) {
                            self.bump();
                        }
                        let hi = if self.expr_can_start(no_struct) {
                            Some(Box::new(self.parse_expr(3, no_struct)))
                        } else {
                            None
                        };
                        let end = hi.as_ref().map_or(self.pos.saturating_sub(1), |h| h.end_ti);
                        return self.new_expr(start, start, end, ExprKind::Range { lo: None, hi });
                    }
                    self.bump();
                    return self.new_expr(start, start, start, ExprKind::Opaque);
                }
                _ => {
                    self.bump();
                    return self.new_expr(start, start, start, ExprKind::Opaque);
                }
            }
        }
        // Literals.
        match t.kind {
            TokenKind::Number => {
                let w = int_suffix_width(&t.text);
                self.bump();
                let is_float = t.text.contains(['e', 'E']) && !t.text.starts_with("0x")
                    || (self.is_p(self.pos, '.')
                        && self
                            .at(self.pos + 1)
                            .is_some_and(|n| n.kind == TokenKind::Number));
                let kind = if is_float {
                    // Consume `.` digits of a float literal split by the lexer.
                    if self.is_p(self.pos, '.') {
                        self.bump();
                        if self
                            .at(self.pos)
                            .is_some_and(|n| n.kind == TokenKind::Number)
                        {
                            self.bump();
                        }
                    }
                    ExprKind::Lit(LitKind::Float)
                } else {
                    ExprKind::Lit(LitKind::Int(w))
                };
                let end = self.pos.saturating_sub(1);
                let e = self.new_expr(start, start, end, kind);
                return self.postfix(e, no_struct);
            }
            TokenKind::Str | TokenKind::RawStr => {
                self.bump();
                let e = self.new_expr(start, start, start, ExprKind::Lit(LitKind::Str));
                return self.postfix(e, no_struct);
            }
            TokenKind::Char => {
                self.bump();
                let e = self.new_expr(start, start, start, ExprKind::Lit(LitKind::Char));
                return self.postfix(e, no_struct);
            }
            TokenKind::Lifetime => {
                // A loop label `'a: loop { … }`.
                self.bump();
                if self.is_p(self.pos, ':') {
                    self.bump();
                }
                return self.parse_unary(no_struct);
            }
            _ => {}
        }
        // Keyword expressions and paths.
        let word = t.text.as_str();
        match word {
            "true" | "false" => {
                self.bump();
                let e = self.new_expr(start, start, start, ExprKind::Lit(LitKind::Bool));
                self.postfix(e, no_struct)
            }
            "if" => self.parse_if(start),
            "match" => self.parse_match(start),
            "for" => self.parse_for(start),
            "while" => self.parse_while(start),
            "loop" => {
                self.bump();
                let body = self.parse_block();
                let end = self.pos.saturating_sub(1);
                self.new_expr(start, start, end, ExprKind::Loop { body })
            }
            "unsafe" => {
                self.bump();
                let blk = self.parse_block();
                let end = self.pos.saturating_sub(1);
                self.new_expr(start, start, end, ExprKind::Block(blk))
            }
            "return" | "break" => {
                self.bump();
                let inner = if self.expr_can_start(no_struct) && !self.is_p(self.pos, '{') {
                    Some(Box::new(self.parse_expr(0, no_struct)))
                } else {
                    None
                };
                let end = inner.as_ref().map_or(start, |e| e.end_ti);
                let kind = if word == "return" {
                    ExprKind::Return(inner)
                } else {
                    ExprKind::Break(inner)
                };
                self.new_expr(start, start, end, kind)
            }
            "continue" => {
                self.bump();
                self.new_expr(start, start, start, ExprKind::Opaque)
            }
            "move" => {
                self.bump();
                if self.is_p(self.pos, '|') {
                    self.parse_closure(start, no_struct)
                } else {
                    self.new_expr(start, start, start, ExprKind::Opaque)
                }
            }
            _ => self.parse_path_expr(start, no_struct),
        }
    }

    fn parse_closure(&mut self, start: usize, no_struct: bool) -> Expr {
        // pos at the opening `|`; `||` lexes as two adjacent puncts.
        self.bump();
        let names = if self.is_p(self.pos, '|') && self.glued(self.pos.saturating_sub(1)) {
            Vec::new()
        } else {
            let (names, _) = self.collect_pat(&['|'], None);
            names
        };
        if self.is_p(self.pos, '|') {
            self.bump();
        }
        // Optional `-> T` before a block body.
        if self.is_p(self.pos, '-') && self.is_p(self.pos + 1, '>') && self.glued(self.pos) {
            self.bump();
            self.bump();
            let _ty = self.collect_ty(&['{']);
        }
        let body = self.parse_expr(0, no_struct);
        let end = body.end_ti;
        self.new_expr(
            start,
            start,
            end,
            ExprKind::Closure {
                names,
                body: Box::new(body),
            },
        )
    }

    fn parse_if(&mut self, start: usize) -> Expr {
        self.bump(); // `if`
        let mut names = Vec::new();
        if self.is_kw(self.pos, "let") {
            self.bump();
            let (n, _) = self.collect_pat(&['='], None);
            names = n;
            if self.is_p(self.pos, '=') {
                self.bump();
            }
        }
        let cond = self.parse_expr(0, true);
        let then = self.parse_block();
        let mut els = None;
        if self.is_kw(self.pos, "else") {
            self.bump();
            let e = if self.is_kw(self.pos, "if") {
                let s2 = self.pos;
                self.parse_if(s2)
            } else {
                let s2 = self.pos;
                let blk = self.parse_block();
                let end = self.pos.saturating_sub(1);
                self.new_expr(s2, s2, end, ExprKind::Block(blk))
            };
            els = Some(Box::new(e));
        }
        let end = self.pos.saturating_sub(1);
        self.new_expr(
            start,
            start,
            end,
            ExprKind::If {
                names,
                cond: Box::new(cond),
                then,
                els,
            },
        )
    }

    fn parse_match(&mut self, start: usize) -> Expr {
        self.bump(); // `match`
        let scrut = self.parse_expr(0, true);
        let mut arms = Vec::new();
        if self.is_p(self.pos, '{') {
            self.bump();
            while let Some(t) = self.cur() {
                if t.is_punct('}') {
                    self.bump();
                    break;
                }
                if t.is_punct('#') {
                    self.skip_attr();
                    continue;
                }
                let before = self.pos;
                // Pattern (with alternatives and guards) up to `=>`.
                let (names, _) = self.collect_pat(&['='], Some("\u{0}"));
                // collect_pat stops at `=`; require the `>` half.
                if self.is_p(self.pos, '=') && self.is_p(self.pos + 1, '>') {
                    self.bump();
                    self.bump();
                    let body = self.parse_expr(0, false);
                    if self.is_p(self.pos, ',') {
                        self.bump();
                    }
                    arms.push(Arm { names, body });
                } else if self.pos == before {
                    self.bump();
                }
            }
        }
        let end = self.pos.saturating_sub(1);
        self.new_expr(
            start,
            start,
            end,
            ExprKind::Match {
                scrut: Box::new(scrut),
                arms,
            },
        )
    }

    fn parse_for(&mut self, start: usize) -> Expr {
        self.bump(); // `for`
        let (names, _) = self.collect_pat(&[], Some("in"));
        if self.is_kw(self.pos, "in") {
            self.bump();
        }
        let iter = self.parse_expr(0, true);
        let body = self.parse_block();
        let end = self.pos.saturating_sub(1);
        self.new_expr(
            start,
            start,
            end,
            ExprKind::For {
                names,
                iter: Box::new(iter),
                body,
            },
        )
    }

    fn parse_while(&mut self, start: usize) -> Expr {
        self.bump(); // `while`
        let mut names = Vec::new();
        if self.is_kw(self.pos, "let") {
            self.bump();
            let (n, _) = self.collect_pat(&['='], None);
            names = n;
            if self.is_p(self.pos, '=') {
                self.bump();
            }
        }
        let cond = self.parse_expr(0, true);
        let body = self.parse_block();
        let end = self.pos.saturating_sub(1);
        self.new_expr(
            start,
            start,
            end,
            ExprKind::While {
                names,
                cond: Box::new(cond),
                body,
            },
        )
    }

    /// Parse a path and whatever follows it: macro call, struct literal,
    /// call, or a bare path.
    fn parse_path_expr(&mut self, start: usize, no_struct: bool) -> Expr {
        let mut segs = Vec::new();
        let mut last_ti = start;
        while let Some(t) = self.cur() {
            if t.kind == TokenKind::Ident {
                segs.push(t.text.clone());
                last_ti = self.bump();
                // Turbofish `::<…>`.
                if self.is_p(self.pos, ':') && self.is_p(self.pos + 1, ':') {
                    if self.is_p(self.pos + 2, '<') {
                        self.bump();
                        self.bump();
                        self.skip_generics();
                        break;
                    }
                    if self
                        .at(self.pos + 2)
                        .is_some_and(|t| t.kind == TokenKind::Ident)
                    {
                        self.bump();
                        self.bump();
                        continue;
                    }
                }
            }
            break;
        }
        if segs.is_empty() {
            self.bump();
            return self.new_expr(start, start, start, ExprKind::Opaque);
        }
        // Macro call `name!(…)` / `name![…]` / `name!{…}`.
        if self.is_p(self.pos, '!')
            && (self.is_p(self.pos + 1, '(')
                || self.is_p(self.pos + 1, '[')
                || self.is_p(self.pos + 1, '{'))
        {
            self.bump(); // `!`
            let open = self.cur().map(|t| t.text.chars().next().unwrap_or('('));
            let close = match open {
                Some('[') => ']',
                Some('{') => '}',
                _ => ')',
            };
            self.bump(); // opening delimiter
            let mut args = Vec::new();
            while let Some(t) = self.cur() {
                if t.is_punct(close) {
                    break;
                }
                let before = self.pos;
                args.push(self.parse_expr(0, false));
                if self.is_p(self.pos, ',') || self.is_p(self.pos, ';') || self.pos == before {
                    self.bump();
                }
                if self.is_p(self.pos, close) {
                    break;
                }
            }
            let end = if self.is_p(self.pos, close) {
                self.bump()
            } else {
                self.pos.saturating_sub(1)
            };
            let name = segs.last().cloned().unwrap_or_default();
            let e = self.new_expr(last_ti, start, end, ExprKind::MacroCall { name, args });
            return self.postfix(e, no_struct);
        }
        // Struct literal `Path { field: expr, … }`.
        if !no_struct && self.is_p(self.pos, '{') && self.looks_like_struct_lit() {
            self.bump(); // `{`
            let mut fields = Vec::new();
            let mut rest = None;
            while let Some(t) = self.cur() {
                if t.is_punct('}') {
                    break;
                }
                if t.is_punct('.') && self.is_p(self.pos + 1, '.') {
                    self.bump();
                    self.bump();
                    rest = Some(Box::new(self.parse_expr(0, false)));
                    break;
                }
                if t.kind == TokenKind::Ident {
                    let fname = t.text.clone();
                    let fti = self.bump();
                    if self.is_p(self.pos, ':') && !self.is_p(self.pos + 1, ':') {
                        self.bump();
                        let val = self.parse_expr(0, false);
                        fields.push((fname, val));
                    } else {
                        // Shorthand `Struct { field }`.
                        let path =
                            self.new_expr(fti, fti, fti, ExprKind::Path(vec![fname.clone()]));
                        fields.push((fname, path));
                    }
                    if self.is_p(self.pos, ',') {
                        self.bump();
                    }
                    continue;
                }
                self.bump();
            }
            let end = if self.is_p(self.pos, '}') {
                self.bump()
            } else {
                self.pos.saturating_sub(1)
            };
            let e = self.new_expr(
                last_ti,
                start,
                end,
                ExprKind::StructLit {
                    path: segs,
                    fields,
                    rest,
                },
            );
            return self.postfix(e, no_struct);
        }
        let e = self.new_expr(last_ti, start, last_ti, ExprKind::Path(segs));
        self.postfix(e, no_struct)
    }

    /// With `pos` at a `{` following a path: does this open a struct
    /// literal rather than a block?
    fn looks_like_struct_lit(&self) -> bool {
        if self.is_p(self.pos + 1, '}') {
            return true;
        }
        if self.is_p(self.pos + 1, '.') && self.is_p(self.pos + 2, '.') {
            return true;
        }
        if self
            .at(self.pos + 1)
            .is_some_and(|t| t.kind == TokenKind::Ident)
        {
            // `ident:` (not `::`), `ident,` or `ident}` → field list.
            if self.is_p(self.pos + 2, ':') && !self.is_p(self.pos + 3, ':') {
                return true;
            }
            if self.is_p(self.pos + 2, ',') || self.is_p(self.pos + 2, '}') {
                return true;
            }
        }
        false
    }

    /// Postfix loop: `.field`, `.method(…)`, `?`, `(…)`, `[…]`, `as T`.
    fn postfix(&mut self, mut e: Expr, no_struct: bool) -> Expr {
        while let Some(t) = self.cur() {
            if t.is_punct('.') {
                // Not a range (`..`).
                if self.is_p(self.pos + 1, '.') {
                    break;
                }
                let Some(next) = self.at(self.pos + 1) else {
                    break;
                };
                if next.kind == TokenKind::Ident {
                    self.bump(); // `.`
                    let name = next.text.clone();
                    let name_ti = self.bump();
                    // Turbofish on methods: `.collect::<…>()`.
                    if self.is_p(self.pos, ':') && self.is_p(self.pos + 1, ':') {
                        self.bump();
                        self.bump();
                        self.skip_generics();
                    }
                    if self.is_p(self.pos, '(') {
                        self.bump();
                        let mut args = Vec::new();
                        while let Some(t2) = self.cur() {
                            if t2.is_punct(')') {
                                break;
                            }
                            let before = self.pos;
                            args.push(self.parse_expr(0, false));
                            if self.is_p(self.pos, ',') || self.pos == before {
                                self.bump();
                            }
                        }
                        let end = if self.is_p(self.pos, ')') {
                            self.bump()
                        } else {
                            self.pos.saturating_sub(1)
                        };
                        let start = e.start_ti;
                        e = self.new_expr(
                            name_ti,
                            start,
                            end,
                            ExprKind::MethodCall {
                                base: Box::new(e),
                                name,
                                args,
                            },
                        );
                    } else {
                        let start = e.start_ti;
                        e = self.new_expr(
                            name_ti,
                            start,
                            name_ti,
                            ExprKind::Field {
                                base: Box::new(e),
                                name,
                            },
                        );
                    }
                    continue;
                }
                if next.kind == TokenKind::Number {
                    // Tuple field `.0`.
                    self.bump();
                    let name = next.text.clone();
                    let name_ti = self.bump();
                    let start = e.start_ti;
                    e = self.new_expr(
                        name_ti,
                        start,
                        name_ti,
                        ExprKind::Field {
                            base: Box::new(e),
                            name,
                        },
                    );
                    continue;
                }
                break;
            }
            if t.is_punct('?') {
                let ti = self.bump();
                let start = e.start_ti;
                e = self.new_expr(ti, start, ti, ExprKind::Try { base: Box::new(e) });
                continue;
            }
            if t.is_punct('(') {
                self.bump();
                let mut args = Vec::new();
                while let Some(t2) = self.cur() {
                    if t2.is_punct(')') {
                        break;
                    }
                    let before = self.pos;
                    args.push(self.parse_expr(0, false));
                    if self.is_p(self.pos, ',') || self.pos == before {
                        self.bump();
                    }
                }
                let end = if self.is_p(self.pos, ')') {
                    self.bump()
                } else {
                    self.pos.saturating_sub(1)
                };
                let start = e.start_ti;
                let ti = e.ti;
                e = self.new_expr(
                    ti,
                    start,
                    end,
                    ExprKind::Call {
                        callee: Box::new(e),
                        args,
                    },
                );
                continue;
            }
            if t.is_punct('[') {
                self.bump();
                let index = self.parse_expr(0, false);
                let end = if self.is_p(self.pos, ']') {
                    self.bump()
                } else {
                    self.pos.saturating_sub(1)
                };
                let start = e.start_ti;
                let ti = e.ti;
                e = self.new_expr(
                    ti,
                    start,
                    end,
                    ExprKind::Index {
                        base: Box::new(e),
                        index: Box::new(index),
                    },
                );
                continue;
            }
            if t.is_ident("as") {
                let as_ti = self.bump();
                let ty_start = self.pos;
                let ty = self.collect_ty(&[
                    ',', ';', ')', ']', '}', '=', '<', '+', '-', '*', '/', '%', '&', '|', '^', '?',
                    '.',
                ]);
                let ty_end_ti = self.pos.saturating_sub(1).max(ty_start);
                let start = e.start_ti;
                e = self.new_expr(
                    as_ti,
                    start,
                    ty_end_ti,
                    ExprKind::Cast {
                        base: Box::new(e),
                        ty,
                        ty_end_ti,
                    },
                );
                continue;
            }
            break;
        }
        // Tighter-than-binary handled; leave binary to the caller.
        let _ = no_struct;
        e
    }
}

enum PrattOp {
    Bin(BinOp),
    Assign(Option<BinOp>),
    Range,
}

/// Width in bits of an integer-literal suffix (0 = unsuffixed).
fn int_suffix_width(text: &str) -> u16 {
    for (suffix, w) in [
        ("u8", 8u16),
        ("i8", 8),
        ("u16", 16),
        ("i16", 16),
        ("u32", 32),
        ("i32", 32),
        ("u64", 64),
        ("i64", 64),
        ("u128", 128),
        ("i128", 128),
        ("usize", 64),
        ("isize", 64),
    ] {
        if text.ends_with(suffix) {
            return w;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn parse_src(src: &str) -> File {
        let toks = lexer::lex(src);
        let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
        parse(&toks, &code)
    }

    #[test]
    fn fn_signatures_params_and_ret() {
        let f = parse_src(
            "impl Conn { pub fn on_segment(&mut self, seg: &TcpSegment) -> Vec<TcpSegment> { seg } }",
        );
        assert_eq!(f.functions.len(), 1);
        let func = &f.functions[0];
        assert_eq!(func.name, "on_segment");
        assert_eq!(func.self_ty.as_deref(), Some("Conn"));
        assert_eq!(
            func.params,
            vec![("seg".to_string(), "&TcpSegment".to_string())]
        );
        assert_eq!(func.ret.as_deref(), Some("Vec<TcpSegment>"));
    }

    #[test]
    fn an_array_return_type_does_not_hide_the_body() {
        let f = parse_src(
            "impl Conn { fn on_segment(&mut self) -> [Option<TcpSegment>; 2] { self.len as u32 } }",
        );
        let func = &f.functions[0];
        assert_eq!(func.ret.as_deref(), Some("[Option<TcpSegment>;2]"));
        assert!(func.body.is_some(), "the body is still there to be linted");
    }

    #[test]
    fn struct_fields_are_recorded() {
        let f = parse_src("pub struct Tcb { pub snd_nxt: u32, pub buffered: Vec<u8> }");
        let tcb = f.structs.get("Tcb").expect("struct parsed");
        assert_eq!(tcb.get("snd_nxt").map(String::as_str), Some("u32"));
        assert_eq!(tcb.get("buffered").map(String::as_str), Some("Vec<u8>"));
    }

    #[test]
    fn binary_comparison_parses_with_operands() {
        let f = parse_src("fn f(a: u32, b: u32) -> bool { a < b }");
        let body = f.functions[0].body.as_ref().expect("body");
        let Stmt::Expr { expr, .. } = &body.stmts[0] else {
            panic!("expected expr stmt");
        };
        let ExprKind::Binary { op, lhs, rhs } = &expr.kind else {
            panic!("expected binary, got {:?}", expr.kind);
        };
        assert_eq!(*op, BinOp::Lt);
        assert!(matches!(&lhs.kind, ExprKind::Path(p) if p == &vec!["a".to_string()]));
        assert!(matches!(&rhs.kind, ExprKind::Path(p) if p == &vec!["b".to_string()]));
    }

    #[test]
    fn method_chains_and_casts() {
        let f = parse_src("fn f(v: Vec<u8>) { let n = v.len() as u32; }");
        let body = f.functions[0].body.as_ref().expect("body");
        let Stmt::Let { names, init, .. } = &body.stmts[0] else {
            panic!("expected let");
        };
        assert_eq!(names, &vec!["n".to_string()]);
        let init = init.as_ref().expect("init");
        let ExprKind::Cast { base, ty, .. } = &init.kind else {
            panic!("expected cast, got {:?}", init.kind);
        };
        assert_eq!(ty, "u32");
        assert!(matches!(&base.kind, ExprKind::MethodCall { name, .. } if name == "len"));
    }

    #[test]
    fn let_underscore_is_flagged() {
        let f = parse_src("fn f() { let _ = g(); let x = h(); }");
        let body = f.functions[0].body.as_ref().expect("body");
        let Stmt::Let { underscore, .. } = &body.stmts[0] else {
            panic!()
        };
        assert!(*underscore);
        let Stmt::Let {
            underscore, names, ..
        } = &body.stmts[1]
        else {
            panic!()
        };
        assert!(!underscore);
        assert_eq!(names, &vec!["x".to_string()]);
    }

    #[test]
    fn struct_literal_vs_block_disambiguation() {
        let f = parse_src(
            "fn f() { let s = TcpSegment { seq: 1, payload: p.to_vec() }; match s.seq { _ => {} } }",
        );
        let body = f.functions[0].body.as_ref().expect("body");
        let Stmt::Let { init, .. } = &body.stmts[0] else {
            panic!()
        };
        assert!(matches!(
            &init.as_ref().unwrap().kind,
            ExprKind::StructLit { path, fields, .. }
                if path == &vec!["TcpSegment".to_string()] && fields.len() == 2
        ));
        let Stmt::Expr { expr, .. } = &body.stmts[1] else {
            panic!()
        };
        assert!(matches!(&expr.kind, ExprKind::Match { .. }));
    }

    #[test]
    fn shifts_compose_from_adjacent_angles() {
        let f = parse_src("fn f(x: u8) -> u8 { (x as u8) << 4 }");
        let body = f.functions[0].body.as_ref().expect("body");
        let Stmt::Expr { expr, .. } = &body.stmts[0] else {
            panic!()
        };
        let ExprKind::Binary { op, .. } = &expr.kind else {
            panic!("got {:?}", expr.kind)
        };
        assert_eq!(*op, BinOp::Shl);
    }

    #[test]
    fn wrapping_calls_keep_receiver_structure() {
        let f = parse_src("fn f(s: S) { s.tcb.rcv_nxt = s.tcb.rcv_nxt.wrapping_add(1); }");
        let body = f.functions[0].body.as_ref().expect("body");
        let Stmt::Expr { expr, .. } = &body.stmts[0] else {
            panic!()
        };
        let ExprKind::Assign { op: None, rhs, .. } = &expr.kind else {
            panic!("got {:?}", expr.kind)
        };
        assert!(matches!(
            &rhs.kind,
            ExprKind::MethodCall { name, .. } if name == "wrapping_add"
        ));
    }

    #[test]
    fn macro_calls_parse_arguments() {
        let f = parse_src("fn f(out: String) { let _ = writeln!(out, \"{}\", 1 + 2); }");
        let body = f.functions[0].body.as_ref().expect("body");
        let Stmt::Let {
            init, underscore, ..
        } = &body.stmts[0]
        else {
            panic!()
        };
        assert!(*underscore);
        assert!(matches!(
            &init.as_ref().unwrap().kind,
            ExprKind::MacroCall { name, args } if name == "writeln" && args.len() == 3
        ));
    }

    #[test]
    fn if_let_and_while_let_bind_names() {
        let f = parse_src("fn f(x: Option<u32>) { if let Some(v) = x { v; } }");
        let body = f.functions[0].body.as_ref().expect("body");
        let Stmt::Expr { expr, .. } = &body.stmts[0] else {
            panic!()
        };
        let ExprKind::If { names, .. } = &expr.kind else {
            panic!("got {:?}", expr.kind)
        };
        assert_eq!(names, &vec!["v".to_string()]);
    }

    #[test]
    fn for_loops_and_ranges() {
        let f = parse_src("fn f(v: Vec<u8>) { for b in v[1..] { b; } }");
        let body = f.functions[0].body.as_ref().expect("body");
        let Stmt::Expr { expr, .. } = &body.stmts[0] else {
            panic!()
        };
        let ExprKind::For { names, iter, .. } = &expr.kind else {
            panic!("got {:?}", expr.kind)
        };
        assert_eq!(names, &vec!["b".to_string()]);
        assert!(matches!(&iter.kind, ExprKind::Index { .. }));
    }

    #[test]
    fn closures_parse_bodies() {
        let f = parse_src("fn f() { let g = |i| (i % 251) as u8; }");
        let body = f.functions[0].body.as_ref().expect("body");
        let Stmt::Let { init, .. } = &body.stmts[0] else {
            panic!()
        };
        let ExprKind::Closure { names, body } = &init.as_ref().unwrap().kind else {
            panic!()
        };
        assert_eq!(names, &vec!["i".to_string()]);
        assert!(matches!(&body.kind, ExprKind::Cast { .. }));
    }

    #[test]
    fn malformed_input_degrades_without_looping() {
        // Must terminate and produce something for garbage input.
        let f = parse_src("fn f() { let = ; @@@ } fn g() {}");
        assert_eq!(f.functions.len(), 2);
    }
}
