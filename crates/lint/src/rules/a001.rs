//! A001 — frame-buffer copies in the zero-copy hot path.
//!
//! The frame path is zero-copy: every `.clone()`/`.to_vec()` of payload
//! bytes or whole frames — and every `.to_vec()` that materialises a
//! `FrameBuf` view back into an owned buffer — in frame-path
//! (`netstack`/`conduit`/`unikernel`/`jitsu`) non-test code is an error.
//! (`FrameBuf::clone()` is exempt — it is an O(1) refcount bump, not a
//! byte copy.)

use crate::ast::{self, Expr, ExprKind};
use crate::diagnostics::Diagnostic;
use crate::rules::{AstContext, FileContext};
use crate::sema::Class;

pub fn check(ctx: &FileContext<'_>, ast_cx: &AstContext<'_>) -> Vec<Diagnostic> {
    let in_scope = ctx.crate_name.is_some_and(|c| ctx.config.is_frame_path(c));
    if !in_scope || ctx.in_tests_dir {
        return Vec::new();
    }
    let mut out = Vec::new();
    for f in &ast_cx.ast.functions {
        let Some(body) = &f.body else { continue };
        let mut v = CopyVisitor {
            ctx,
            ast_cx,
            out: &mut out,
        };
        ast::visit_block(body, &mut v);
    }
    out
}

struct CopyVisitor<'a, 'b> {
    ctx: &'a FileContext<'a>,
    ast_cx: &'a AstContext<'a>,
    out: &'b mut Vec<Diagnostic>,
}

impl ast::Visit for CopyVisitor<'_, '_> {
    fn expr(&mut self, e: &Expr) {
        if self.ctx.is_test(e.ti) {
            return;
        }
        let ExprKind::MethodCall { base, name, args } = &e.kind else {
            return;
        };
        if !args.is_empty() {
            return;
        }
        let base_class = self.ast_cx.classes.class(base);
        let copied = match name.as_str() {
            // `.to_vec()` on payload bytes — or on a shared `FrameBuf`
            // view — materialises a fresh buffer.
            "to_vec" => match base_class {
                Class::ByteBuf => true,
                Class::Struct(s) => s == "FrameBuf",
                _ => false,
            },
            // `.clone()` of payload bytes or of a whole frame struct.
            "clone" => match base_class {
                Class::ByteBuf => true,
                Class::Struct(s) => crate::sema::FRAME_TYPES.contains(&s.as_str()),
                _ => false,
            },
            _ => false,
        };
        if !copied {
            return;
        }
        let t = self.ctx.tok(e.ti);
        let what = match base_class {
            Class::Struct(s) => format!("whole-frame `{s}` copy"),
            _ => "payload byte-buffer copy".to_string(),
        };
        self.out.push(Diagnostic::error(
            self.ctx.file,
            t.line,
            t.col,
            "A001",
            format!(
                "{what} (`.{name}()`) in the frame hot path, which is zero-copy — \
                 hand on a `FrameBuf` view instead"
            ),
        ));
    }
}
