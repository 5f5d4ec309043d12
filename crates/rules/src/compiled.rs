//! Compiled rule programs: flat instruction streams for the decision layer.
//!
//! The tree interpreter in `expr::eval` clones a
//! [`Value`] per AST node it touches — every `document.amount` lookup
//! copies the amount, every literal copies itself. This module lowers an
//! [`Expr`] once into a postorder instruction program that evaluates on a
//! reusable operand stack of *borrowed* values: path lookups push
//! references into the document body, `source`/`target` push string
//! slices, and only genuinely new values (comparison results, arithmetic,
//! parsed dates) are materialized. Field names are pre-resolved to
//! process-global interned [`Symbol`]s (the same symbols that key every
//! record), literal-only subtrees are constant-folded at compile
//! time — including subtrees that always *fail*, which lower to an
//! in-place `Op::Fail` so error order is preserved — and `and`/`or`
//! short-circuit via skip offsets patched into the stream.
//!
//! The contract with the interpreter is strict observational equality:
//! byte-identical outputs *and* byte-identical error values, fuzzed by the
//! compiled-vs-interpreted proptest in `tests/properties.rs`.

use crate::error::{Result, RuleError};
use crate::expr::eval;
use crate::expr::{BinOp, Builtin, Expr, PathRoot, RuleContext};
use crate::rule::RuleFunction;
use b2b_document::{
    CorrelationId, Date, DocKind, Document, DocumentError, FieldPath, FormatId, Money, PathSeg,
    Symbol, Value,
};
use std::cmp::Ordering;

fn eval_err(reason: impl Into<String>) -> RuleError {
    RuleError::Eval { reason: reason.into() }
}

/// One step of a pre-resolved path.
#[derive(Debug, Clone, PartialEq)]
enum CSeg {
    /// Record field access through an interned name.
    Field(Symbol),
    /// List element access.
    Index(usize),
}

/// A slice of [`CSeg`]s in the shared segment pool, plus the pooled
/// `PathNotFound` reason reported when the path misses.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PathInfo {
    start: u32,
    len: u32,
    miss: u32,
}

/// A leaf operand a comparison can evaluate in place, without stack
/// traffic: the fusible subset of expressions (constants — including
/// folded constant subtrees like `date("…")` —, `source`, `target`,
/// document paths, and `len(document.path)`).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Atom {
    /// A pooled constant.
    Const(u32),
    /// The context's `source`.
    Source,
    /// The context's `target`.
    Target,
    /// A document-rooted path.
    Path(u32),
    /// `len()` of a document-rooted path.
    LenPath(u32),
}

/// One instruction. Operands live on the evaluation stack; indices point
/// into the program's constant / string / path pools.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// Push a reference to a pooled constant.
    Const(u32),
    /// Push the context's `source` as a borrowed string.
    Source,
    /// Push the context's `target` as a borrowed string.
    Target,
    /// Resolve a document-rooted path; push a reference into the body, or
    /// fail with the pooled `PathNotFound` reason.
    Path(u32),
    /// Fail unconditionally with a pooled reason — a constant-folded
    /// subtree whose evaluation always errors (kept in place so error
    /// order matches the interpreter).
    Fail(u32),
    /// Logical negation of a bool.
    Not,
    /// Arithmetic negation of an int or money.
    Neg,
    /// Pop two operands, compare, push the bool result.
    Cmp(BinOp),
    /// Fused comparison of two in-place atoms: no pushes, no pops, one
    /// dispatch. This is the superinstruction the guard scans of real rule
    /// functions (`target == "…" and source == "…" and …`) compile into.
    /// Atom evaluation order (left before right) and every error text
    /// match the unfused `[lhs, rhs, Cmp]` sequence exactly.
    Cmp2 { op: BinOp, l: Atom, r: Atom },
    /// A non-final link of a fused `and` chain: evaluate the comparison in
    /// place; if false, push `false` and skip past the chain's end; if
    /// true, fall through to the next link with *no* stack traffic at all.
    /// Equivalent to `[Cmp2, AndCheck]`, collapsed into one dispatch.
    Cmp2AndCheck { op: BinOp, l: Atom, r: Atom, skip: u32 },
    /// A non-final link of a fused `or` chain (mirror of
    /// [`Op::Cmp2AndCheck`]): if true, push `true` and skip; if false,
    /// fall through.
    Cmp2OrCheck { op: BinOp, l: Atom, r: Atom, skip: u32 },
    /// Pop two operands, combine arithmetically, push the result.
    Arith(BinOp),
    /// `and` short-circuit: pop the lhs; if false, push `false` and skip
    /// the next `n` instructions (the rhs and its tail).
    AndCheck(u32),
    /// `and` tail: pop the rhs, coerce to bool, push.
    AndTail,
    /// `or` short-circuit: pop the lhs; if true, push `true` and skip.
    OrCheck(u32),
    /// `or` tail: pop the rhs, coerce to bool, push.
    OrTail,
    /// `date(text)` builtin.
    DateCall,
    /// `money(text)` builtin.
    MoneyCall,
    /// `len(list | text)` builtin.
    Len,
    /// `exists(document.path)` — resolve without failing, push the bool.
    ExistsPath(u32),
}

/// A stack operand: borrowed wherever possible, owned only for values the
/// program genuinely creates.
#[derive(Debug)]
enum Operand<'v> {
    /// A value the program computed (comparison result, arithmetic, …).
    Owned(Value),
    /// A borrow into the document body or the constant pool.
    Ref(&'v Value),
    /// `source` / `target` — a string slice that never became a `Value`.
    Str(&'v str),
}

/// A borrowed view used for type dispatch without consuming the operand.
enum View<'a> {
    Val(&'a Value),
    Str(&'a str),
}

/// A resolved fused atom: a borrow into the document body or constant
/// pool, a context string, or a computed length. Never an owned `Value` —
/// fused comparisons move nothing.
enum AtomVal<'v> {
    Val(&'v Value),
    Str(&'v str),
    Int(i64),
}

impl<'v> Operand<'v> {
    fn view(&self) -> View<'_> {
        match self {
            Operand::Owned(v) => View::Val(v),
            Operand::Ref(v) => View::Val(v),
            Operand::Str(s) => View::Str(s),
        }
    }

    /// The type name the interpreter would report for this operand.
    fn type_name(&self) -> &'static str {
        match self.view() {
            View::Val(v) => v.type_name(),
            View::Str(_) => "text",
        }
    }

    /// Materializes the operand (the only clone on the whole path, paid
    /// once for the final result or a stored value).
    fn into_value(self) -> Value {
        match self {
            Operand::Owned(v) => v,
            Operand::Ref(v) => v.clone(),
            Operand::Str(s) => Value::text(s),
        }
    }

    /// Boolean coercion with the interpreter's exact error text.
    fn as_bool(&self, at: &str) -> Result<bool> {
        match self.view() {
            View::Val(Value::Bool(b)) => Ok(*b),
            _ => Err(eval_err(
                DocumentError::TypeMismatch {
                    expected: "bool",
                    found: self.type_name(),
                    at: at.to_string(),
                }
                .to_string(),
            )),
        }
    }

    /// Text coercion with the interpreter's exact error text.
    fn as_text(&self, at: &str) -> Result<&str> {
        match self.view() {
            View::Val(Value::Text(s)) => Ok(s),
            View::Str(s) => Ok(s),
            _ => Err(eval_err(
                DocumentError::TypeMismatch {
                    expected: "text",
                    found: self.type_name(),
                    at: at.to_string(),
                }
                .to_string(),
            )),
        }
    }
}

/// Compares two operands with the interpreter's coercion table.
/// `source`/`target` slices compare as text without materializing.
fn compare_operands(l: &Operand<'_>, r: &Operand<'_>) -> Result<Ordering> {
    match (l.view(), r.view()) {
        (View::Val(a), View::Val(b)) => eval::compare(a, b),
        (View::Str(a), View::Str(b)) => Ok(a.cmp(b)),
        (View::Str(a), View::Val(Value::Text(b))) => Ok(a.cmp(b.as_str())),
        (View::Val(Value::Text(a)), View::Str(b)) => Ok(a.as_str().cmp(b)),
        (View::Str(_), View::Val(b)) => {
            Err(eval_err(format!("cannot compare text with {}", b.type_name())))
        }
        (View::Val(a), View::Str(_)) => {
            Err(eval_err(format!("cannot compare {} with text", a.type_name())))
        }
    }
}

/// Maps a comparison operator over an ordering — the interpreter's exact
/// truth table, shared by every (fused or not) comparison instruction.
fn cmp_result(op: BinOp, ord: Ordering) -> bool {
    match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::Ne => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::Le => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::Ge => ord != Ordering::Less,
        _ => unreachable!("comparison arm"),
    }
}

/// Arithmetic over operands, mirroring the interpreter's defined cases.
fn arith_operands(op: BinOp, l: &Operand<'_>, r: &Operand<'_>) -> Result<Value> {
    let overflow = || eval_err("integer overflow");
    match (op, l.view(), r.view()) {
        (BinOp::Add, View::Val(Value::Int(a)), View::Val(Value::Int(b))) => {
            Ok(Value::Int(a.checked_add(*b).ok_or_else(overflow)?))
        }
        (BinOp::Sub, View::Val(Value::Int(a)), View::Val(Value::Int(b))) => {
            Ok(Value::Int(a.checked_sub(*b).ok_or_else(overflow)?))
        }
        (BinOp::Mul, View::Val(Value::Int(a)), View::Val(Value::Int(b))) => {
            Ok(Value::Int(a.checked_mul(*b).ok_or_else(overflow)?))
        }
        (BinOp::Add, View::Val(Value::Money(a)), View::Val(Value::Money(b))) => {
            Ok(Value::Money(a.checked_add(*b).map_err(|e| eval_err(e.to_string()))?))
        }
        (BinOp::Sub, View::Val(Value::Money(a)), View::Val(Value::Money(b))) => {
            Ok(Value::Money(a.checked_sub(*b).map_err(|e| eval_err(e.to_string()))?))
        }
        (BinOp::Mul, View::Val(Value::Money(a)), View::Val(Value::Int(b)))
        | (BinOp::Mul, View::Val(Value::Int(b)), View::Val(Value::Money(a))) => {
            Ok(Value::Money(a.checked_mul(*b).map_err(|e| eval_err(e.to_string()))?))
        }
        _ => Err(eval_err(format!(
            "{op:?} is not defined for {} and {}",
            l.type_name(),
            r.type_name()
        ))),
    }
}

/// One expression lowered to a flat program.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledExpr {
    ops: Vec<Op>,
    consts: Vec<Value>,
    strings: Vec<Box<str>>,
    segs: Vec<CSeg>,
    paths: Vec<PathInfo>,
    max_stack: usize,
}

impl CompiledExpr {
    /// Lowers an expression.
    pub fn compile(expr: &Expr) -> Self {
        let mut c = Compiler::default();
        // The folding context is never consulted: `is_const` admits only
        // subtrees whose value is independent of (source, target, document).
        let dummy_doc = Document::new(
            DocKind::Receipt,
            FormatId::custom("rule-fold"),
            CorrelationId::new("fold"),
            Value::record(),
        );
        let dummy = RuleContext::new("", "", &dummy_doc);
        c.emit(expr, &dummy);
        CompiledExpr {
            ops: c.ops,
            consts: c.consts,
            strings: c.strings,
            segs: c.segs,
            paths: c.paths,
            max_stack: c.max_depth,
        }
    }

    /// Number of instructions (constant folding shrinks this).
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Deepest operand stack any evaluation of this program can reach.
    pub fn max_stack(&self) -> usize {
        self.max_stack
    }

    fn walk<'v>(&self, info: PathInfo, root: &'v Value) -> Option<&'v Value> {
        let mut cur = root;
        let segs = &self.segs[info.start as usize..(info.start + info.len) as usize];
        for seg in segs {
            cur = match (seg, cur) {
                (CSeg::Field(sym), Value::Record(fields)) => fields.get_sym(*sym)?,
                (CSeg::Index(i), Value::List(items)) => items.get(*i)?,
                _ => return None,
            };
        }
        Some(cur)
    }

    fn fail(&self, reason: u32) -> RuleError {
        eval_err(self.strings[reason as usize].to_string())
    }

    /// Evaluates one fused atom, borrowing wherever possible — no operand
    /// is materialized, no `Value` is moved. Failures (and failure texts)
    /// match the unfused instruction sequence exactly.
    fn atom_val<'v>(&'v self, atom: Atom, ctx: &RuleContext<'v>) -> Result<AtomVal<'v>> {
        Ok(match atom {
            Atom::Const(i) => AtomVal::Val(&self.consts[i as usize]),
            Atom::Source => AtomVal::Str(ctx.source),
            Atom::Target => AtomVal::Str(ctx.target),
            Atom::Path(i) => {
                let info = self.paths[i as usize];
                match self.walk(info, ctx.document.body()) {
                    Some(v) => AtomVal::Val(v),
                    None => return Err(self.fail(info.miss)),
                }
            }
            Atom::LenPath(i) => {
                let info = self.paths[i as usize];
                let v = match self.walk(info, ctx.document.body()) {
                    Some(v) => v,
                    None => return Err(self.fail(info.miss)),
                };
                let n = match v {
                    Value::List(items) => items.len() as i64,
                    Value::Text(s) => s.chars().count() as i64,
                    _ => {
                        return Err(eval_err(format!(
                            "len() needs list or text, got {}",
                            v.type_name()
                        )))
                    }
                };
                AtomVal::Int(n)
            }
        })
    }

    /// A fused comparison, start to finish: resolve both atoms (left
    /// first), compare with the interpreter's coercion table, map through
    /// the operator. Error texts are byte-identical to the stacked
    /// `[lhs, rhs, Cmp]` sequence.
    fn cmp2(&self, op: BinOp, l: Atom, r: Atom, ctx: &RuleContext<'_>) -> Result<bool> {
        let lv = self.atom_val(l, ctx)?;
        let rv = self.atom_val(r, ctx)?;
        let ord = match (&lv, &rv) {
            (AtomVal::Val(a), AtomVal::Val(b)) => eval::compare(a, b)?,
            (AtomVal::Str(a), AtomVal::Str(b)) => a.cmp(b),
            (AtomVal::Str(a), AtomVal::Val(Value::Text(b))) => a.cmp(&b.as_str()),
            (AtomVal::Val(Value::Text(a)), AtomVal::Str(b)) => a.as_str().cmp(b),
            (AtomVal::Int(a), AtomVal::Int(b)) => a.cmp(b),
            (AtomVal::Int(a), AtomVal::Val(b)) => eval::compare(&Value::Int(*a), b)?,
            (AtomVal::Val(a), AtomVal::Int(b)) => eval::compare(a, &Value::Int(*b))?,
            (AtomVal::Str(_), AtomVal::Val(b)) => {
                return Err(eval_err(format!("cannot compare text with {}", b.type_name())))
            }
            (AtomVal::Val(a), AtomVal::Str(_)) => {
                return Err(eval_err(format!("cannot compare {} with text", a.type_name())))
            }
            (AtomVal::Str(_), AtomVal::Int(_)) => {
                return Err(eval_err("cannot compare text with int".to_string()))
            }
            (AtomVal::Int(_), AtomVal::Str(_)) => {
                return Err(eval_err("cannot compare int with text".to_string()))
            }
        };
        Ok(cmp_result(op, ord))
    }

    /// Runs the program. `stack` is caller-provided so one allocation
    /// serves every guard and body of a whole function invocation.
    fn run<'v>(
        &'v self,
        ctx: &RuleContext<'v>,
        stack: &mut Vec<Operand<'v>>,
    ) -> Result<Operand<'v>> {
        stack.clear();
        let mut pc = 0;
        while pc < self.ops.len() {
            match self.ops[pc] {
                Op::Const(i) => stack.push(Operand::Ref(&self.consts[i as usize])),
                Op::Source => stack.push(Operand::Str(ctx.source)),
                Op::Target => stack.push(Operand::Str(ctx.target)),
                Op::Path(i) => {
                    let info = self.paths[i as usize];
                    match self.walk(info, ctx.document.body()) {
                        Some(v) => stack.push(Operand::Ref(v)),
                        None => return Err(self.fail(info.miss)),
                    }
                }
                Op::Fail(i) => return Err(self.fail(i)),
                Op::Not => {
                    let v = pop(stack);
                    match v.view() {
                        View::Val(Value::Bool(b)) => stack.push(Operand::Owned(Value::Bool(!b))),
                        _ => {
                            return Err(eval_err(format!(
                                "`not` needs a bool, got {}",
                                v.type_name()
                            )))
                        }
                    }
                }
                Op::Neg => {
                    let v = pop(stack);
                    let negated = match v.view() {
                        View::Val(Value::Int(n)) => Value::Int(
                            n.checked_neg().ok_or_else(|| eval_err("integer negation overflow"))?,
                        ),
                        View::Val(Value::Money(m)) => {
                            Value::Money(m.checked_mul(-1).map_err(|e| eval_err(e.to_string()))?)
                        }
                        _ => {
                            return Err(eval_err(format!(
                                "`-` needs int or money, got {}",
                                v.type_name()
                            )))
                        }
                    };
                    stack.push(Operand::Owned(negated));
                }
                Op::Cmp(op) => {
                    let r = pop(stack);
                    let l = pop(stack);
                    let ord = compare_operands(&l, &r)?;
                    stack.push(Operand::Owned(Value::Bool(cmp_result(op, ord))));
                }
                Op::Cmp2 { op, l, r } => {
                    let result = self.cmp2(op, l, r, ctx)?;
                    stack.push(Operand::Owned(Value::Bool(result)));
                }
                Op::Cmp2AndCheck { op, l, r, skip } => {
                    if !self.cmp2(op, l, r, ctx)? {
                        stack.push(Operand::Owned(Value::Bool(false)));
                        pc += skip as usize;
                    }
                }
                Op::Cmp2OrCheck { op, l, r, skip } => {
                    if self.cmp2(op, l, r, ctx)? {
                        stack.push(Operand::Owned(Value::Bool(true)));
                        pc += skip as usize;
                    }
                }
                Op::Arith(op) => {
                    let r = pop(stack);
                    let l = pop(stack);
                    stack.push(Operand::Owned(arith_operands(op, &l, &r)?));
                }
                Op::AndCheck(skip) => {
                    if !pop(stack).as_bool("and")? {
                        stack.push(Operand::Owned(Value::Bool(false)));
                        pc += skip as usize;
                    }
                }
                Op::AndTail => {
                    let r = pop(stack).as_bool("and")?;
                    stack.push(Operand::Owned(Value::Bool(r)));
                }
                Op::OrCheck(skip) => {
                    if pop(stack).as_bool("or")? {
                        stack.push(Operand::Owned(Value::Bool(true)));
                        pc += skip as usize;
                    }
                }
                Op::OrTail => {
                    let r = pop(stack).as_bool("or")?;
                    stack.push(Operand::Owned(Value::Bool(r)));
                }
                Op::DateCall => {
                    let v = pop(stack);
                    let text = v.as_text("date()")?;
                    let date = Date::parse_iso(text).map_err(|e| eval_err(e.to_string()))?;
                    stack.push(Operand::Owned(Value::Date(date)));
                }
                Op::MoneyCall => {
                    let v = pop(stack);
                    let text = v.as_text("money()")?;
                    let money = Money::parse(text).map_err(|e| eval_err(e.to_string()))?;
                    stack.push(Operand::Owned(Value::Money(money)));
                }
                Op::Len => {
                    let v = pop(stack);
                    let n = match v.view() {
                        View::Val(Value::List(items)) => items.len() as i64,
                        View::Val(Value::Text(s)) => s.chars().count() as i64,
                        View::Str(s) => s.chars().count() as i64,
                        _ => {
                            return Err(eval_err(format!(
                                "len() needs list or text, got {}",
                                v.type_name()
                            )))
                        }
                    };
                    stack.push(Operand::Owned(Value::Int(n)));
                }
                Op::ExistsPath(i) => {
                    let info = self.paths[i as usize];
                    let present = self.walk(info, ctx.document.body()).is_some();
                    stack.push(Operand::Owned(Value::Bool(present)));
                }
            }
            pc += 1;
        }
        Ok(pop(stack))
    }
}

fn pop<'v>(stack: &mut Vec<Operand<'v>>) -> Operand<'v> {
    stack.pop().expect("compiled rule program underflowed its operand stack")
}

/// Whether an expression's value is independent of the evaluation context
/// (and therefore foldable at compile time). `exists()` never evaluates
/// its argument: its result depends on the argument's *shape* unless the
/// path is document-rooted.
fn is_const(expr: &Expr) -> bool {
    match expr {
        Expr::Literal(_) => true,
        Expr::Path { .. } => false,
        Expr::Not(e) | Expr::Neg(e) => is_const(e),
        Expr::Binary { lhs, rhs, .. } => is_const(lhs) && is_const(rhs),
        Expr::Call { builtin: Builtin::Exists, arg } => {
            !matches!(&**arg, Expr::Path { root: PathRoot::Document, .. })
        }
        Expr::Call { arg, .. } => is_const(arg),
    }
}

/// Flattens nested `chain_op` nodes into their leaf terms, in evaluation
/// order. Both `(a and b) and c` and `a and (b and c)` yield `[a, b, c]`.
fn flatten_chain<'e>(expr: &'e Expr, chain_op: BinOp, out: &mut Vec<&'e Expr>) {
    match expr {
        Expr::Binary { op, lhs, rhs } if *op == chain_op => {
            flatten_chain(lhs, chain_op, out);
            flatten_chain(rhs, chain_op, out);
        }
        _ => out.push(expr),
    }
}

/// Whether an expression is a comparison whose both sides will atomize —
/// the non-mutating twin of [`Compiler::atom_of`], used to decide chain
/// fusion before committing anything to the pools.
fn fusible_cmp(expr: &Expr, dummy: &RuleContext<'_>) -> bool {
    match expr {
        Expr::Binary { op, lhs, rhs }
            if !matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::And | BinOp::Or) =>
        {
            atomizable(lhs, dummy) && atomizable(rhs, dummy)
        }
        _ => false,
    }
}

/// Whether [`Compiler::atom_of`] will return `Some` for this expression.
fn atomizable(expr: &Expr, dummy: &RuleContext<'_>) -> bool {
    if is_const(expr) {
        // Constant subtrees that fold to an error stay unfused so their
        // in-place `Fail` keeps its position.
        return eval::eval(expr, dummy).is_ok();
    }
    match expr {
        Expr::Path { root: PathRoot::Document, .. } => true,
        Expr::Path { root: PathRoot::Source | PathRoot::Target, path } => {
            path.segments().is_empty()
        }
        Expr::Call { builtin: Builtin::Len, arg } => {
            matches!(&**arg, Expr::Path { root: PathRoot::Document, .. })
        }
        _ => false,
    }
}

#[derive(Default)]
struct Compiler {
    ops: Vec<Op>,
    consts: Vec<Value>,
    strings: Vec<Box<str>>,
    segs: Vec<CSeg>,
    paths: Vec<PathInfo>,
    depth: usize,
    max_depth: usize,
}

impl Compiler {
    /// Emits ops for `expr`, tracking the operand-stack depth so the
    /// runtime can pre-size its stack. Every expression nets +1 depth.
    fn emit(&mut self, expr: &Expr, dummy: &RuleContext<'_>) {
        if is_const(expr) {
            match eval::eval(expr, dummy) {
                Ok(v) => {
                    let i = self.push_const(v);
                    self.ops.push(Op::Const(i));
                    self.produced();
                    return;
                }
                Err(RuleError::Eval { reason }) => {
                    let i = self.push_string(reason);
                    self.ops.push(Op::Fail(i));
                    self.produced();
                    return;
                }
                // Defensive: `eval` only raises `Eval` errors today; fall
                // through to normal emission if that ever changes.
                Err(_) => {}
            }
        }
        match expr {
            Expr::Literal(v) => {
                let i = self.push_const(v.clone());
                self.ops.push(Op::Const(i));
                self.produced();
            }
            Expr::Path { root, path } => self.emit_path(*root, path),
            Expr::Not(e) => {
                self.emit(e, dummy);
                self.ops.push(Op::Not);
            }
            Expr::Neg(e) => {
                self.emit(e, dummy);
                self.ops.push(Op::Neg);
            }
            Expr::Binary { op: BinOp::And, lhs, rhs } => {
                if !self.try_emit_cmp_chain(expr, BinOp::And, dummy) {
                    self.emit_logical(lhs, rhs, dummy, Op::AndCheck(0), Op::AndTail)
                }
            }
            Expr::Binary { op: BinOp::Or, lhs, rhs } => {
                if !self.try_emit_cmp_chain(expr, BinOp::Or, dummy) {
                    self.emit_logical(lhs, rhs, dummy, Op::OrCheck(0), Op::OrTail)
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                let compare = !matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul);
                // Fuse `atom <cmp> atom` into one stack-free instruction.
                // (Both sides constant never reaches here — the whole
                // comparison would have folded above.)
                if compare {
                    if let (Some(l), Some(r)) = (self.atom_of(lhs, dummy), self.atom_of(rhs, dummy))
                    {
                        self.ops.push(Op::Cmp2 { op: *op, l, r });
                        self.produced();
                        return;
                    }
                }
                self.emit(lhs, dummy);
                self.emit(rhs, dummy);
                self.ops.push(if compare { Op::Cmp(*op) } else { Op::Arith(*op) });
                self.depth -= 1;
            }
            Expr::Call { builtin: Builtin::Date, arg } => {
                self.emit(arg, dummy);
                self.ops.push(Op::DateCall);
            }
            Expr::Call { builtin: Builtin::Money, arg } => {
                self.emit(arg, dummy);
                self.ops.push(Op::MoneyCall);
            }
            Expr::Call { builtin: Builtin::Len, arg } => {
                self.emit(arg, dummy);
                self.ops.push(Op::Len);
            }
            Expr::Call { builtin: Builtin::Exists, arg } => match &**arg {
                Expr::Path { root: PathRoot::Document, path } => {
                    let i = self.push_path(path);
                    self.ops.push(Op::ExistsPath(i));
                    self.produced();
                }
                // Reachable only through the defensive fallthrough above;
                // mirror the interpreter's shape-based answers.
                Expr::Path { .. } => {
                    let i = self.push_const(Value::Bool(true));
                    self.ops.push(Op::Const(i));
                    self.produced();
                }
                _ => {
                    let i = self.push_string("exists() needs a path argument".to_string());
                    self.ops.push(Op::Fail(i));
                    self.produced();
                }
            },
        }
    }

    /// Chain lowering for `and`/`or` trees whose every term is a fusible
    /// comparison: `[Cmp2Check(skip→end)…, Cmp2]`, where each non-final
    /// link decides in place and jumps past the chain when it
    /// short-circuits. Every skip lands *after* the final op, so no jump
    /// can target (and therefore bypass) another link. Returns false —
    /// emitting nothing — when any term doesn't fuse; the caller falls
    /// back to the general short-circuit lowering.
    ///
    /// Soundness of flattening `(a and b) and c` into `a, b, c`: each
    /// term is a comparison, which can only produce a bool or fail, so
    /// the tree's intermediate coercions are no-ops and the associativity
    /// of the source tree is unobservable — the term evaluation order and
    /// every short-circuit/error outcome are exactly the interpreter's.
    fn try_emit_cmp_chain(
        &mut self,
        expr: &Expr,
        chain_op: BinOp,
        dummy: &RuleContext<'_>,
    ) -> bool {
        let mut terms = Vec::new();
        flatten_chain(expr, chain_op, &mut terms);
        if terms.len() < 2 || !terms.iter().all(|t| fusible_cmp(t, dummy)) {
            return false;
        }
        let mut checks = Vec::new();
        for (i, term) in terms.iter().enumerate() {
            let Expr::Binary { op, lhs, rhs } = term else { unreachable!("fusible term") };
            let l = self.atom_of(lhs, dummy).expect("fusible lhs");
            let r = self.atom_of(rhs, dummy).expect("fusible rhs");
            if i + 1 == terms.len() {
                self.ops.push(Op::Cmp2 { op: *op, l, r });
            } else {
                checks.push(self.ops.len());
                self.ops.push(match chain_op {
                    BinOp::And => Op::Cmp2AndCheck { op: *op, l, r, skip: 0 },
                    _ => Op::Cmp2OrCheck { op: *op, l, r, skip: 0 },
                });
            }
        }
        let end = self.ops.len();
        for at in checks {
            let skip = u32::try_from(end - at - 1).expect("rule program too large");
            self.ops[at] = match self.ops[at] {
                Op::Cmp2AndCheck { op, l, r, .. } => Op::Cmp2AndCheck { op, l, r, skip },
                Op::Cmp2OrCheck { op, l, r, .. } => Op::Cmp2OrCheck { op, l, r, skip },
                other => unreachable!("patching non-check op {other:?}"),
            };
        }
        self.produced();
        true
    }

    /// Short-circuit lowering: `[lhs…, Check(skip), rhs…, Tail]`, where
    /// `skip` jumps past the rhs and the tail when the lhs decides. The
    /// tail's only job is the bool coercion of the rhs — when the rhs
    /// statically produces a bool (or always fails), it is elided.
    fn emit_logical(
        &mut self,
        lhs: &Expr,
        rhs: &Expr,
        dummy: &RuleContext<'_>,
        check: Op,
        tail: Op,
    ) {
        self.emit(lhs, dummy);
        let at = self.ops.len();
        self.ops.push(check);
        self.depth -= 1;
        self.emit(rhs, dummy);
        if !self.last_op_is_bool() {
            self.ops.push(tail);
        }
        let skip = u32::try_from(self.ops.len() - at - 1).expect("rule program too large");
        self.ops[at] = match self.ops[at] {
            Op::AndCheck(_) => Op::AndCheck(skip),
            Op::OrCheck(_) => Op::OrCheck(skip),
            other => unreachable!("patching non-check op {other:?}"),
        };
    }

    /// Whether the op just emitted can only ever leave a bool on the stack
    /// (or fail). Conservative: `false` just keeps the coercing tail.
    fn last_op_is_bool(&self) -> bool {
        match self.ops.last() {
            Some(Op::Cmp(_) | Op::Cmp2 { .. } | Op::Not | Op::ExistsPath(_)) => true,
            Some(Op::AndTail | Op::OrTail) => true,
            // A skip target: the preceding check pushes a bool, and the op
            // here is the rhs tail position — already covered above.
            Some(Op::Const(i)) => matches!(self.consts[*i as usize], Value::Bool(_)),
            _ => false,
        }
    }

    /// The fusible-atom view of an expression, if it has one. Constant
    /// subtrees that fold to a *value* become pooled constants; constant
    /// subtrees that fold to an error are left to normal emission so the
    /// in-place `Fail` keeps its position.
    fn atom_of(&mut self, expr: &Expr, dummy: &RuleContext<'_>) -> Option<Atom> {
        if is_const(expr) {
            return match eval::eval(expr, dummy) {
                Ok(v) => Some(Atom::Const(self.push_const(v))),
                Err(_) => None,
            };
        }
        match expr {
            Expr::Path { root: PathRoot::Document, path } => Some(Atom::Path(self.push_path(path))),
            Expr::Path { root: PathRoot::Source, path } if path.segments().is_empty() => {
                Some(Atom::Source)
            }
            Expr::Path { root: PathRoot::Target, path } if path.segments().is_empty() => {
                Some(Atom::Target)
            }
            Expr::Call { builtin: Builtin::Len, arg } => match &**arg {
                Expr::Path { root: PathRoot::Document, path } => {
                    Some(Atom::LenPath(self.push_path(path)))
                }
                _ => None,
            },
            _ => None,
        }
    }

    fn emit_path(&mut self, root: PathRoot, path: &FieldPath) {
        match root {
            PathRoot::Document => {
                let i = self.push_path(path);
                self.ops.push(Op::Path(i));
            }
            PathRoot::Source if path.segments().is_empty() => self.ops.push(Op::Source),
            PathRoot::Target if path.segments().is_empty() => self.ops.push(Op::Target),
            // `source.x` roots the path at a text value, which can never
            // resolve — the interpreter reports PathNotFound unconditionally.
            PathRoot::Source | PathRoot::Target => {
                let reason = DocumentError::PathNotFound { path: path.to_string() }.to_string();
                let i = self.push_string(reason);
                self.ops.push(Op::Fail(i));
            }
        }
        self.produced();
    }

    fn produced(&mut self) {
        self.depth += 1;
        self.max_depth = self.max_depth.max(self.depth);
    }

    fn push_const(&mut self, v: Value) -> u32 {
        if let Some(i) = self.consts.iter().position(|c| c == &v) {
            return i as u32;
        }
        self.consts.push(v);
        u32::try_from(self.consts.len() - 1).expect("constant pool too large")
    }

    fn push_string(&mut self, s: String) -> u32 {
        if let Some(i) = self.strings.iter().position(|c| **c == *s) {
            return i as u32;
        }
        self.strings.push(s.into_boxed_str());
        u32::try_from(self.strings.len() - 1).expect("string pool too large")
    }

    fn push_path(&mut self, path: &FieldPath) -> u32 {
        let start = u32::try_from(self.segs.len()).expect("segment pool too large");
        for seg in path.segments() {
            self.segs.push(match seg {
                PathSeg::Field(name) => CSeg::Field(*name),
                PathSeg::Index(i) => CSeg::Index(*i),
            });
        }
        let len = u32::try_from(path.segments().len()).expect("path too long");
        let miss =
            self.push_string(DocumentError::PathNotFound { path: path.to_string() }.to_string());
        self.paths.push(PathInfo { start, len, miss });
        u32::try_from(self.paths.len() - 1).expect("path pool too large")
    }
}

/// One compiled guarded rule.
#[derive(Debug, Clone, PartialEq)]
struct CompiledRule {
    guard: CompiledExpr,
    body: CompiledExpr,
}

/// A rule function lowered to compiled programs, evaluated first-match-wins
/// with the interpreter's exact semantics (including the error cases).
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledFunction {
    name: String,
    rules: Vec<CompiledRule>,
    max_stack: usize,
}

impl CompiledFunction {
    /// Lowers every guard and body of a function.
    pub fn compile(function: &RuleFunction) -> Self {
        let rules: Vec<CompiledRule> = function
            .rules
            .iter()
            .map(|r| CompiledRule {
                guard: CompiledExpr::compile(&r.guard),
                body: CompiledExpr::compile(&r.body),
            })
            .collect();
        let max_stack =
            rules.iter().map(|r| r.guard.max_stack.max(r.body.max_stack)).max().unwrap_or(0);
        Self { name: function.name.clone(), rules, max_stack }
    }

    /// The function's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Evaluates the function: the body of the first rule whose guard
    /// holds, or [`RuleError::NoRuleApplies`] — byte-identical to
    /// [`RuleFunction::invoke`].
    pub fn invoke(&self, ctx: &RuleContext<'_>) -> Result<Value> {
        let mut stack = Vec::with_capacity(self.max_stack);
        for rule in &self.rules {
            let guard = rule.guard.run(ctx, &mut stack)?;
            let holds = match guard.view() {
                View::Val(Value::Bool(b)) => *b,
                _ => {
                    return Err(eval_err(format!(
                        "expected a boolean result, got {}",
                        guard.type_name()
                    )))
                }
            };
            if holds {
                return rule.body.run(ctx, &mut stack).map(Operand::into_value);
            }
        }
        Err(RuleError::NoRuleApplies {
            function: self.name.clone(),
            source: ctx.source.to_string(),
            target: ctx.target.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::BusinessRule;
    use b2b_document::normalized::sample_po;

    fn both(src: &str, source: &str, target: &str, amount: i64) -> (Result<Value>, Result<Value>) {
        let doc = sample_po("4711", amount);
        let expr = Expr::parse(src).unwrap();
        let ctx = RuleContext::new(source, target, &doc);
        let interpreted = expr.eval(&ctx);
        let compiled = CompiledExpr::compile(&expr);
        let mut stack = Vec::new();
        let lowered = compiled.run(&ctx, &mut stack).map(Operand::into_value);
        (interpreted, lowered)
    }

    fn assert_agree(src: &str, source: &str, target: &str, amount: i64) {
        let (interpreted, compiled) = both(src, source, target, amount);
        assert_eq!(interpreted, compiled, "{src}");
    }

    #[test]
    fn paper_rule_agrees_with_interpreter() {
        let rule = "target == \"SAP\" and source == \"TP1\" and document.amount >= 55000";
        for (s, t, amount) in
            [("TP1", "SAP", 60_000), ("TP1", "SAP", 50_000), ("TP2", "SAP", 60_000)]
        {
            assert_agree(rule, s, t, amount);
        }
    }

    #[test]
    fn short_circuit_skips_rhs_errors() {
        assert_agree("false and document.bogus == 1", "s", "t", 1);
        assert_agree("true or document.bogus == 1", "s", "t", 1);
        assert_agree("true and document.bogus == 1", "s", "t", 1);
        assert_agree("false or document.bogus == 1", "s", "t", 1);
    }

    #[test]
    fn error_text_matches_interpreter_exactly() {
        for src in [
            "document.bogus",
            "not 5",
            "\"a\" < 1",
            "source < 1",
            "1 < source",
            "len(document.amount)",
            "date(5)",
            "date(source)",
            "money(\"oops\")",
            "document.amount + 1",
            "source + 1",
            "-source",
            "exists(5)",
            "len(source)",
            "source == target",
            "source == \"s\"",
        ] {
            assert_agree(src, "s", "t", 1);
        }
    }

    #[test]
    fn constant_subtrees_fold_to_one_op() {
        let expr = Expr::parse("1 + 2 * 3").unwrap();
        let compiled = CompiledExpr::compile(&expr);
        assert_eq!(compiled.op_count(), 1, "pure literal tree folds to a single Const");
        assert_agree("1 + 2 * 3", "s", "t", 1);
    }

    #[test]
    fn constant_errors_fold_in_place_and_preserve_order() {
        // `not 5` always fails, but the lhs decides first: folding must
        // keep the Fail op behind the short-circuit skip.
        let expr = Expr::parse("false and not 5").unwrap();
        let compiled = CompiledExpr::compile(&expr);
        assert!(compiled.op_count() <= 4, "rhs folds to one Fail op");
        assert_agree("false and not 5", "s", "t", 1);
        assert_agree("true and not 5", "s", "t", 1);
    }

    #[test]
    fn folding_handles_overflow_errors() {
        assert_agree("9223372036854775807 + 1", "s", "t", 1);
        assert_agree("--9223372036854775807 - 2", "s", "t", 1);
    }

    #[test]
    fn compiled_function_matches_interpreted_invoke() {
        let f = RuleFunction::new("check-need-for-approval")
            .with_rule(
                BusinessRule::parse(
                    "r1",
                    "target == \"SAP\" and source == \"TP1\"",
                    "document.amount >= 55000",
                )
                .unwrap(),
            )
            .with_rule(
                BusinessRule::parse(
                    "r2",
                    "target == \"SAP\" and source == \"TP2\"",
                    "document.amount >= 40000",
                )
                .unwrap(),
            );
        let compiled = CompiledFunction::compile(&f);
        let doc = sample_po("1", 45_000);
        for (s, t) in [("TP1", "SAP"), ("TP2", "SAP"), ("TP9", "SAP"), ("TP1", "Oracle")] {
            let ctx = RuleContext::new(s, t, &doc);
            assert_eq!(f.invoke(&ctx), compiled.invoke(&ctx), "({s}, {t})");
        }
    }

    #[test]
    fn non_boolean_guard_reports_the_interpreter_error() {
        let f =
            RuleFunction::new("bad").with_rule(BusinessRule::parse("r", "1 + 1", "true").unwrap());
        let compiled = CompiledFunction::compile(&f);
        let doc = sample_po("1", 1);
        let ctx = RuleContext::new("s", "t", &doc);
        assert_eq!(f.invoke(&ctx), compiled.invoke(&ctx));
    }

    #[test]
    fn builtins_agree() {
        for src in [
            "exists(document.amount)",
            "exists(document.bogus)",
            "exists(source)",
            "len(document.lines)",
            "document.header.order_date < date(\"2002-01-01\")",
            "document.amount >= money(\"55000.00 USD\")",
            "document.lines[0].quantity * 2 + 1",
            "document.amount - document.amount",
            "-document.lines[0].quantity",
            "len(\"héllo\")",
        ] {
            assert_agree(src, "s", "t", 10);
        }
    }

    #[test]
    fn max_stack_is_sufficient_and_tight() {
        // Both comparisons fuse to Cmp2 atoms, so the whole guard runs in
        // one stack slot.
        let expr = Expr::parse("document.amount >= 55000 and source == \"TP1\"").unwrap();
        let compiled = CompiledExpr::compile(&expr);
        assert_eq!(compiled.max_stack(), 1);
        // Arithmetic does not fuse: the unfused operands stack up.
        let expr = Expr::parse("document.amount + 1 >= 55000").unwrap();
        let compiled = CompiledExpr::compile(&expr);
        assert!(compiled.max_stack() >= 2);
        assert!(compiled.max_stack() <= 3);
    }

    #[test]
    fn fused_comparisons_shrink_the_program() {
        // The paper's guard shape: a fused chain of three comparisons —
        // two in-place checks that jump past the chain when they decide,
        // plus the final comparison. No stack traffic until the result.
        let rule = "target == \"SAP\" and source == \"TP1\" and document.amount >= 55000";
        let compiled = CompiledExpr::compile(&Expr::parse(rule).unwrap());
        assert_eq!(compiled.op_count(), 3, "two Cmp2AndCheck + one Cmp2: {compiled:?}");
        assert_eq!(compiled.max_stack(), 1, "the chain runs in one stack slot");
        // Fusion changes nothing observable, including the error cases.
        for src in [
            "len(document.lines) >= 1 and target == \"SAP\"",
            "date(\"2001-01-01\") <= document.header.order_date",
            "document.bogus == 1",
            "len(document.bogus) == 1",
            "len(document.amount) == 1",
            "source == 5",
            "document.amount >= 55000 or source == \"TP1\"",
            // Chains: short-circuit exits, late errors, mixed nesting.
            "source == \"X\" or target == \"SAP\" or document.amount >= 99999",
            "source == \"X\" or target == \"Y\" or document.amount >= 99999",
            "target == \"SAP\" and len(document.bogus) >= 1 and source == \"TP1\"",
            "target == \"X\" and len(document.bogus) >= 1 and source == \"TP1\"",
            "source == \"TP1\" and (target == \"SAP\" or document.amount >= 99999)",
            "exists(document.amount) and source == \"TP1\" and target == \"SAP\"",
        ] {
            assert_agree(src, "TP1", "SAP", 60_000);
        }
    }
}
