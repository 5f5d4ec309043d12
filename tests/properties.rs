//! Property-based tests over the core data structures and the
//! document/transformation pipeline.

use proptest::prelude::*;
use semantic_b2b::document::normalized::{
    build_poa, check_total_consistency, sample_po, PoBuilder,
};
use semantic_b2b::document::Value;
use semantic_b2b::document::{
    record, CorrelationId, Currency, Date, DocKind, Document, DocumentError, FieldPath, FormatId,
    FormatRegistry, Money,
};
use semantic_b2b::integration::engine::{IntegrationEngine, SELECT_BACKEND_RULE};
use semantic_b2b::integration::private_process::QUOTE_PRICE_RULE;
use semantic_b2b::integration::scenario::{seller_rules, BUYER, BUYER2, BUYER3};
use semantic_b2b::network::{
    Bytes, EndpointId, FaultConfig, ReliableConfig, ReliableEndpoint, SimNetwork,
};
use semantic_b2b::rules::approval::{
    check_need_for_approval, ApprovalThreshold, CHECK_NEED_FOR_APPROVAL,
};
use semantic_b2b::rules::expr::{BinOp, Builtin, PathRoot};
use semantic_b2b::rules::{BusinessRule, Expr, RuleContext, RuleError, RuleFunction, RuleRegistry};
use semantic_b2b::transform::{
    ContextKey, MappingRule, TransformContext, TransformError, TransformProgram, TransformRegistry,
};
use std::collections::BTreeSet;
use std::path::PathBuf;

// ---------------------------------------------------------------------
// Strategies.

fn currency() -> impl Strategy<Value = Currency> {
    prop_oneof![Just(Currency::Usd), Just(Currency::Eur), Just(Currency::Gbp), Just(Currency::Jpy)]
}

fn date() -> impl Strategy<Value = Date> {
    (1990i32..2100, 1u8..=12, 1u8..=28).prop_map(|(y, m, d)| Date::new(y, m, d).unwrap())
}

prop_compose! {
    fn po_line()(item in "[A-Z]{2,8}-[0-9]{1,4}", qty in 1i64..10_000, cents in 1i64..5_000_000)
        -> (String, i64, i64)
    {
        (item, qty, cents)
    }
}

prop_compose! {
    fn normalized_po()(
        po_number in "[A-Z0-9]{1,12}",
        buyer in "[A-Za-z][A-Za-z ]{0,20}",
        seller in "[A-Za-z][A-Za-z ]{0,20}",
        order_date in date(),
        cur in currency(),
        lines in prop::collection::vec(po_line(), 1..6),
    ) -> Document {
        let mut b = PoBuilder::new(&po_number, buyer.trim(), seller.trim(), order_date, cur);
        for (item, qty, cents) in &lines {
            b = b.line(item, *qty, Money::from_cents(*cents, cur)).unwrap();
        }
        b.build().unwrap()
    }
}

/// A normalized request for quote.
fn rfq_document(rfq_number: &str, buyer: &str, item: &str, quantity: i64, by: Date) -> Document {
    Document::new(
        DocKind::RequestForQuote,
        FormatId::NORMALIZED,
        CorrelationId::for_rfq_number(rfq_number),
        record! {
            "header" => record! {
                "rfq_number" => Value::text(rfq_number),
                "buyer" => Value::text(buyer),
                "item" => Value::text(item),
                "quantity" => Value::Int(quantity),
                "respond_by" => Value::Date(by),
            },
        },
    )
}

prop_compose! {
    fn normalized_rfq()(
        rfq_number in "[A-Z0-9]{1,12}",
        buyer in "[A-Za-z][A-Za-z ]{0,20}",
        item in "[A-Z]{2,8}-[0-9]{1,4}",
        quantity in 1i64..10_000,
        respond_by in date(),
    ) -> Document {
        rfq_document(&rfq_number, buyer.trim(), &item, quantity, respond_by)
    }
}

/// The seller's normalized quote for `rfq` at `unit_price`.
fn normalized_quote(rfq: &Document, unit_price: Money) -> Document {
    let header = |field: &str| rfq.get(&format!("header.{field}")).unwrap().clone();
    let respond_by = header("respond_by").as_date("respond_by").unwrap();
    rfq.reply(
        DocKind::Quote,
        FormatId::NORMALIZED,
        record! {
            "header" => record! {
                "rfq_number" => header("rfq_number"),
                "seller" => Value::text("GADGET"),
                "unit_price" => Value::Money(unit_price),
                "valid_until" => Value::Date(respond_by.plus_days(30)),
            },
        },
    )
}

// ---------------------------------------------------------------------
// Primitive invariants.

proptest! {
    #[test]
    fn money_display_parse_roundtrip(cents in -1_000_000_000_000i64..1_000_000_000_000, cur in currency()) {
        let m = Money::from_cents(cents, cur);
        let back = Money::parse(&m.to_string()).unwrap();
        prop_assert_eq!(back, m);
    }

    #[test]
    fn date_plus_days_is_invertible(d in date(), delta in -100_000i64..100_000) {
        let there = d.plus_days(delta);
        let back = there.plus_days(-delta);
        prop_assert_eq!(back, d);
        prop_assert_eq!(there.day_number() - d.day_number(), delta);
    }

    #[test]
    fn date_compact_roundtrip(d in date()) {
        prop_assert_eq!(Date::parse_compact(&d.to_compact()).unwrap(), d);
        prop_assert_eq!(Date::parse_iso(&d.to_string()).unwrap(), d);
    }

    #[test]
    fn field_path_display_parse_roundtrip(
        segs in prop::collection::vec(
            ("[a-z][a-z0-9_]{0,8}", prop::collection::vec(0usize..100, 0..3)),
            1..5,
        ),
    ) {
        // Field segments with any number of interleaved list indexes:
        // `a`, `a[0].b`, `a[3][7].b[1]`, ...
        let mut text = String::new();
        for (i, (name, idxs)) in segs.iter().enumerate() {
            if i > 0 {
                text.push('.');
            }
            text.push_str(name);
            for idx in idxs {
                text.push_str(&format!("[{idx}]"));
            }
        }
        let p = FieldPath::parse(&text).unwrap();
        prop_assert_eq!(p.to_string(), text);
    }

    #[test]
    fn expression_parser_never_panics(input in ".{0,60}") {
        let _ = Expr::parse(&input); // may Err, must not panic
    }

    #[test]
    fn lexable_garbage_never_panics_the_evaluator(
        tokens in prop::collection::vec(
            prop_oneof![
                Just("source".to_string()), Just("target".to_string()),
                Just("document".to_string()), Just("and".to_string()),
                Just("or".to_string()), Just("not".to_string()),
                Just("==".to_string()), Just(">=".to_string()),
                Just("(".to_string()), Just(")".to_string()),
                Just("amount".to_string()), Just(".".to_string()),
                Just("55000".to_string()), Just("\"TP1\"".to_string()),
            ],
            0..12,
        ),
    ) {
        let text = tokens.join(" ");
        if let Ok(expr) = Expr::parse(&text) {
            let doc = semantic_b2b::document::normalized::sample_po("p", 10);
            let _ = expr.eval(&RuleContext::new("TP1", "SAP", &doc)); // may Err
        }
    }
}

// ---------------------------------------------------------------------
// Transform programs. Random programs over a vocabulary of paths that
// sometimes hit, sometimes miss, and sometimes conflict (overwriting
// earlier writes, setting through scalars) reach every rule's success
// and error branches; every builtin program must round-trip the
// documents it carries.

fn source_path() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("header.po_number"),
        Just("header.buyer"),
        Just("header.currency"),
        Just("header.order_date"),
        Just("header"),
        Just("amount"),
        Just("lines"),
        Just("lines[0].item"),
        Just("lines[0].line_total"),
        Just("header.missing"),
        Just("lines[9].item"),
    ]
}

fn target_path() -> impl Strategy<Value = &'static str> {
    // Deliberately few targets, weighted toward one shared prefix, so
    // programs collide: `x` then `x.y` (set through a scalar), `x.y` then
    // `x` then `x.y.z` (re-created parents), optional moves overwriting
    // subtrees earlier rules proved present.
    // (Repeated variants: the vendored `prop_oneof` has no weight syntax.)
    prop_oneof![
        Just("x"),
        Just("x"),
        Just("x"),
        Just("x.y"),
        Just("x.y"),
        Just("x.y"),
        Just("x.y.z"),
        Just("x.y.z"),
        Just("x.y.z"),
        Just("n1"),
        Just("items"),
        Just("out"),
    ]
}

fn body_rule() -> impl Strategy<Value = MappingRule> {
    let from = prop_oneof![
        Just("line_no"),
        Just("item"),
        Just("quantity"),
        Just("unit_price"),
        Just("missing")
    ];
    let to = || prop_oneof![Just("a"), Just("a.b"), Just("code")];
    prop_oneof![
        (from, to(), any::<bool>()).prop_map(|(f, t, opt)| if opt {
            MappingRule::mv_opt(f, t)
        } else {
            MappingRule::mv(f, t)
        }),
        ("[a-z]{1,6}", to()).prop_map(|(s, t)| MappingRule::const_text(t, &s)),
    ]
}

fn mapping_rule() -> impl Strategy<Value = MappingRule> {
    prop_oneof![
        (source_path(), target_path(), any::<bool>()).prop_map(|(f, t, opt)| if opt {
            MappingRule::mv_opt(f, t)
        } else {
            MappingRule::mv(f, t)
        }),
        (target_path(), "[a-z]{1,6}").prop_map(|(t, s)| MappingRule::const_text(t, &s)),
        (source_path(), target_path()).prop_map(|(f, t)| MappingRule::value_map(
            f,
            t,
            &[("USD", "usd"), ("EUR", "eur")]
        )),
        (source_path(), target_path()).prop_map(|(f, t)| MappingRule::pick(
            f,
            "item",
            "LAPTOP-T23",
            "quantity",
            t
        )),
        target_path().prop_map(|t| MappingRule::context(t, ContextKey::Sender)),
        target_path().prop_map(|t| MappingRule::context(t, ContextKey::ControlNumber)),
        (source_path(), target_path()).prop_map(|(f, t)| MappingRule::currency_of(f, t)),
        (source_path(), target_path()).prop_map(|(f, t)| MappingRule::sum_money(
            f,
            "unit_price",
            t
        )),
        (source_path(), target_path(), prop::collection::vec(body_rule(), 0..3))
            .prop_map(|(f, t, rules)| MappingRule::for_each(f, t, rules)),
        (target_path(), prop::collection::vec(body_rule(), 0..3))
            .prop_map(|(t, rules)| MappingRule::append(t, rules)),
    ]
}

/// The `describe()` text of every rule in `rules`, nested bodies included.
fn rule_texts(rules: &[MappingRule]) -> Vec<String> {
    let mut out = Vec::new();
    for rule in rules {
        out.push(rule.describe());
        if let MappingRule::ForEach { rules, .. } | MappingRule::Append { rules, .. } = rule {
            out.extend(rule_texts(rules));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A program either succeeds or fails in one of its own rules, the
    /// same way on every run, and rejects input of another format
    /// before any rule runs.
    #[test]
    fn random_programs_succeed_or_fail_in_one_of_their_rules(
        po in normalized_po(),
        rules in prop::collection::vec(mapping_rule(), 1..8),
    ) {
        let program = TransformProgram::new(
            DocKind::PurchaseOrder,
            FormatId::NORMALIZED,
            FormatId::custom("prop-target"),
            rules,
        );
        let ctx = TransformContext::new("ACME", "GADGET", "000000042", "i-prop");
        let result = program.apply(&po, &ctx);
        prop_assert_eq!(&program.apply(&po, &ctx), &result, "a rerun gave another result");
        match &result {
            Ok(out) => {
                prop_assert_eq!(out.format(), &FormatId::custom("prop-target"));
                prop_assert_eq!((out.id(), out.kind()), (po.id(), po.kind()));
                prop_assert_eq!(out.correlation(), po.correlation());
            }
            Err(TransformError::Rule { program: id, rule, .. }) => {
                prop_assert_eq!(id.as_str(), program.id().as_str());
                prop_assert!(
                    rule_texts(program.rules()).contains(rule),
                    "`{}` is not a rule of the program", rule
                );
            }
            Err(other) => prop_assert!(false, "unexpected error: {}", other),
        }

        let retagged = po.reformatted(FormatId::custom("elsewhere"), po.body().clone());
        prop_assert_eq!(
            program.apply(&retagged, &ctx),
            Err(TransformError::WrongInput {
                program: program.id().to_string(),
                reason: "expected format normalized, got elsewhere".into(),
            })
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every builtin program — each wire and back-end format to and from
    /// the normalized format, for POs, POAs, RFQs and quotes — runs
    /// through registry dispatch: a normalized document sent out and
    /// back keeps its identity, kind, correlation and body (each format's
    /// round-trip unit test pins the whole body).
    #[test]
    fn every_builtin_program_round_trips(
        po in normalized_po(),
        ack in date(),
        rfq in normalized_rfq(),
        cents in 1i64..5_000_000,
        cur in currency(),
    ) {
        let reg = TransformRegistry::with_builtins();
        let poa = build_poa(&po, "accepted", ack).unwrap();
        let quote = normalized_quote(&rfq, Money::from_cents(cents, cur));
        // A wire envelope names sender and receiver; formats that carry no
        // party names read them back from there, so each document travels
        // under its own direction's context: orders and RFQs from buyer to
        // seller, acknowledgments and quotes back.
        let header = |doc: &Document, field: &str| {
            doc.get(&format!("header.{field}")).unwrap().as_text(field).unwrap().to_string()
        };
        let (buyer, seller) = (header(&po, "buyer"), header(&po, "seller"));
        let order_ctx = TransformContext::new(&buyer, &seller, "000000007", "i-d");
        let ack_ctx = TransformContext::new(&seller, &buyer, "000000008", "i-d");
        let rfq_ctx = TransformContext::new(&header(&rfq, "buyer"), "GADGET", "000000009", "i-q");
        let quote_ctx = TransformContext::new("GADGET", &header(&rfq, "buyer"), "000000010", "i-q");
        let order_formats = [
            FormatId::EDI_X12,
            FormatId::ROSETTANET,
            FormatId::OAGIS,
            FormatId::SAP_IDOC,
            FormatId::ORACLE_APPS,
            FormatId::BINARY,
        ];
        let quote_formats = [FormatId::ROSETTANET, FormatId::BINARY];
        let mut checked = BTreeSet::new();
        for (doc, formats, ctx) in [
            (&po, &order_formats[..], &order_ctx),
            (&poa, &order_formats[..], &ack_ctx),
            (&rfq, &quote_formats[..], &rfq_ctx),
            (&quote, &quote_formats[..], &quote_ctx),
        ] {
            let kind = doc.kind();
            for format in formats {
                let wire = reg.transform(doc, format, ctx).unwrap();
                prop_assert_eq!(wire.format(), format);
                let back = reg.transform(&wire, &FormatId::NORMALIZED, ctx).unwrap();
                prop_assert_eq!(back.format(), &FormatId::NORMALIZED);
                prop_assert_eq!((back.id(), back.kind()), (doc.id(), kind), "{} {}", format, kind);
                prop_assert_eq!(back.correlation(), doc.correlation(), "{} {}", format, kind);
                prop_assert_eq!(back.body(), doc.body(), "{} {}", format, kind);
                checked.insert((format.clone(), kind));
            }
        }
        prop_assert_eq!(2 * checked.len(), reg.len(), "a builtin program went unchecked");
    }
}

// ---------------------------------------------------------------------
// Rule dispatch. A rule function returns the body of its first rule
// whose guard holds, stops at the first guard that fails to evaluate to
// a bool, and reports `NoRuleApplies` when every guard is false — over
// random expressions mixing literals of every kind, document paths that
// hit and miss, `source`/`target`, short-circuiting `and`/`or`,
// arithmetic over mixed types, and `date`/`money`/`exists`/`len` calls
// with both valid and invalid arguments.

fn rule_literal() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-10_000i64..10_000).prop_map(Value::Int),
        (-5_000_000i64..5_000_000, currency())
            .prop_map(|(cents, cur)| Value::Money(Money::from_cents(cents, cur))),
        "[A-Za-z0-9 ]{0,8}".prop_map(Value::text),
        date().prop_map(Value::Date),
    ]
}

fn rule_leaf() -> impl Strategy<Value = Expr> {
    // Document paths over the normalized-PO vocabulary: scalar hits, a
    // record, a list, indexed lines, and guaranteed misses.
    let doc_path = prop_oneof![
        Just("amount"),
        Just("header.po_number"),
        Just("header.buyer"),
        Just("header.currency"),
        Just("header.order_date"),
        Just("header"),
        Just("lines"),
        Just("lines[0].item"),
        Just("lines[0].quantity"),
        Just("lines[0].line_total"),
        Just("missing"),
        Just("header.missing"),
        Just("lines[9].item"),
    ];
    prop_oneof![
        rule_literal().prop_map(Expr::Literal),
        doc_path.prop_map(|p| Expr::Path {
            root: PathRoot::Document,
            path: FieldPath::parse(p).unwrap(),
        }),
        Just(Expr::parse("source").unwrap()),
        Just(Expr::parse("target").unwrap()),
        // Paths *below* source/target always fail path resolution.
        // (Unreachable from the parser, so built directly.)
        Just(Expr::Path { root: PathRoot::Source, path: FieldPath::parse("x").unwrap() }),
        Just(Expr::Path { root: PathRoot::Target, path: FieldPath::parse("code[0]").unwrap() }),
    ]
}

fn rule_expr() -> impl Strategy<Value = Expr> {
    rule_leaf().prop_recursive(4, 48, 3, |inner| {
        let op = prop_oneof![
            Just(BinOp::And),
            Just(BinOp::Or),
            Just(BinOp::Eq),
            Just(BinOp::Ne),
            Just(BinOp::Lt),
            Just(BinOp::Le),
            Just(BinOp::Gt),
            Just(BinOp::Ge),
            Just(BinOp::Add),
            Just(BinOp::Sub),
            Just(BinOp::Mul),
        ];
        // (Twice: the vendored `prop_oneof` union is not `Clone`.)
        let builtin = prop_oneof![
            Just(Builtin::Date),
            Just(Builtin::Money),
            Just(Builtin::Exists),
            Just(Builtin::Len),
        ];
        let call_builtin = prop_oneof![
            Just(Builtin::Date),
            Just(Builtin::Money),
            Just(Builtin::Exists),
            Just(Builtin::Len),
        ];
        // Texts `date()` and `money()` sometimes accept, sometimes reject.
        let call_text = prop_oneof![
            Just("2021-07-14"),
            Just("55000 USD"),
            Just("12.50 EUR"),
            Just("not a literal"),
        ];
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            inner.clone().prop_map(|e| Expr::Neg(Box::new(e))),
            (op, inner.clone(), inner.clone()).prop_map(|(op, lhs, rhs)| Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            }),
            (builtin, inner).prop_map(|(builtin, arg)| Expr::Call { builtin, arg: Box::new(arg) }),
            (call_builtin, call_text).prop_map(|(builtin, text)| Expr::Call {
                builtin,
                arg: Box::new(Expr::Literal(Value::text(text))),
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn rule_dispatch_is_first_match_wins(
        po in normalized_po(),
        guard in rule_expr(),
        body in rule_expr(),
        source in "[A-Z]{2,4}",
    ) {
        // Two rules with guard and body swapped exercise the whole chain:
        // guard errors, non-boolean guards, fall-through to the second
        // rule, and the no-rule-applies error, through the registry's
        // public dispatch. Whatever the expressions are, nothing panics.
        let function = RuleFunction::new("prop")
            .with_rule(BusinessRule {
                name: "r1".into(),
                guard: guard.clone(),
                body: body.clone(),
            })
            .with_rule(BusinessRule {
                name: "r2".into(),
                guard: body.clone(),
                body: guard.clone(),
            });
        let mut reg = RuleRegistry::new();
        reg.register(function);
        let ctx = RuleContext::new(&source, "SAP", &po);
        let expected = match (guard.eval_bool(&ctx), body.eval_bool(&ctx)) {
            (Err(e), _) => Err(e),
            (Ok(true), _) => body.eval(&ctx),
            (Ok(false), Err(e)) => Err(e),
            (Ok(false), Ok(true)) => guard.eval(&ctx),
            (Ok(false), Ok(false)) => Err(RuleError::NoRuleApplies {
                function: "prop".into(),
                source: source.clone(),
                target: "SAP".into(),
            }),
        };
        prop_assert_eq!(reg.invoke("prop", &source, "SAP", &po), expected);
    }
}

/// The rule functions the scenarios install return what their tables
/// say: the seller's approval thresholds and back-end selection, a
/// quote-price rule, and the approval family scaled to 32 partners,
/// plain and with effective-dated guards — for partners with and without
/// rules, on orders either side of every threshold and on an RFQ.
#[test]
fn scenario_rules_return_what_their_tables_specify() {
    let mut net = SimNetwork::new(FaultConfig::reliable(), 1);
    let mut seller = IntegrationEngine::new("GADGET", &mut net).unwrap();
    seller_rules(&mut seller).unwrap();
    let reg = seller.rules_mut();
    reg.register(
        RuleFunction::new(QUOTE_PRICE_RULE)
            .with_rule(BusinessRule::parse("flat", "true", "money(\"899.50 USD\")").unwrap()),
    );
    // Dispatching TP32 to Oracle scans all 64 guards of each scaled
    // function.
    let scaled: Vec<ApprovalThreshold> = (0..32)
        .flat_map(|k| {
            let tp = format!("TP{}", k + 1);
            [
                ApprovalThreshold::new("SAP", &tp, 10_000 + 5_000 * k),
                ApprovalThreshold::new("Oracle", &tp, 10_000 + 5_000 * k),
            ]
        })
        .collect();
    let mut plain = check_need_for_approval(&scaled).unwrap();
    plain.name = "approve-32-partners".into();
    let mut dated = RuleFunction::new("approve-effective-dated");
    for t in &scaled {
        dated.add_rule(
            BusinessRule::parse(
                &format!("dated {}/{}", t.source, t.target),
                &format!(
                    "date(\"2001-01-01\") <= document.header.order_date \
                     and len(document.lines) >= 1 \
                     and target == \"{}\" and source == \"{}\"",
                    t.target, t.source
                ),
                &format!("document.amount >= {}", t.threshold_units),
            )
            .unwrap(),
        );
    }
    reg.register(plain);
    reg.register(dated);
    assert_eq!(reg.function_names().len(), 5, "{:?}", reg.function_names());

    let paper = [
        ApprovalThreshold::new("SAP", BUYER, 55_000),
        ApprovalThreshold::new("SAP", BUYER2, 40_000),
        ApprovalThreshold::new("Oracle", BUYER, 55_000),
        ApprovalThreshold::new("Oracle", BUYER2, 40_000),
    ];
    let tables: [(&str, &[ApprovalThreshold]); 3] = [
        (CHECK_NEED_FOR_APPROVAL, &paper),
        ("approve-32-partners", &scaled),
        ("approve-effective-dated", &scaled),
    ];
    let orders: Vec<(i64, Document)> =
        [1_000, 39_999, 40_000, 54_999, 55_000, 120_000, 164_999, 165_000]
            .into_iter()
            .map(|amount| (amount, sample_po(&format!("po-{amount}"), amount)))
            .collect();
    let rfq = rfq_document("RFQ-1", BUYER, "LAPTOP-T23", 100, Date::new(2001, 10, 1).unwrap());
    let price = Value::Money(Money::from_cents(89_950, Currency::Usd));
    for source in [BUYER, BUYER2, BUYER3, "TP32", "TP999"] {
        for target in ["SAP", "Oracle"] {
            for (amount, po) in &orders {
                for (name, table) in tables {
                    let expected =
                        match table.iter().find(|t| t.target == target && t.source == source) {
                            Some(t) => Ok(Value::Bool(*amount >= t.threshold_units)),
                            None => Err(RuleError::NoRuleApplies {
                                function: name.into(),
                                source: source.into(),
                                target: target.into(),
                            }),
                        };
                    let got = reg.invoke(name, source, target, po);
                    assert_eq!(got, expected, "{name} ({source} -> {target}) at {amount}");
                }
            }
            let backend = Value::text(if source == BUYER2 { "Oracle" } else { "SAP" });
            for doc in orders.iter().map(|(_, po)| po).chain([&rfq]) {
                let at = doc.correlation();
                let got = reg.invoke(SELECT_BACKEND_RULE, source, target, doc);
                assert_eq!(got, Ok(backend.clone()), "{source} -> {target} on {at}");
                let got = reg.invoke(QUOTE_PRICE_RULE, source, target, doc);
                assert_eq!(got, Ok(price.clone()), "{source} -> {target} on {at}");
            }
        }
    }
    // TP32's threshold (165,000) sits between the last two orders.
    let tp32 =
        |amount| reg.invoke("approve-32-partners", "TP32", "Oracle", &sample_po("x", amount));
    assert_eq!(tp32(164_999), Ok(Value::Bool(false)));
    assert_eq!(tp32(165_000), Ok(Value::Bool(true)));
}

// ---------------------------------------------------------------------
// Serde wire-shape compatibility. The symbol-keyed record core must keep
// the exact JSON representation of the old string-keyed records: maps in
// lexicographic key order, externally tagged variants, unit variants as
// bare strings. Pinned two ways: a round-trip property over random
// documents, and a checked-in fixture serialized before the flattening.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn document_json_roundtrips_byte_identically(po in normalized_po()) {
        let json = serde_json::to_string(po.body()).unwrap();
        let back: Value = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, po.body());
        let again = serde_json::to_string(&back).unwrap();
        prop_assert_eq!(again, json, "re-serialization changed bytes");
    }
}

#[test]
fn pre_flattening_fixture_is_byte_identical() {
    // Serialized by the BTreeMap-keyed record core before the switch to
    // symbol-keyed field vectors; the new core must parse it and emit the
    // same bytes.
    let fixture = include_str!("fixtures/pre_flattening_value.json");
    let value: Value = serde_json::from_str(fixture).unwrap();
    let reencoded = serde_json::to_string(&value).unwrap();
    assert_eq!(reencoded, fixture, "fixture bytes changed under the new record core");
}

// ---------------------------------------------------------------------
// The text codecs against their recorded wire forms.

/// Every recorded wire form (`tests/fixtures/wire/`), with its format.
fn wire_fixtures() -> Vec<(FormatId, Vec<u8>)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/wire");
    let mut fixtures: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "txt"))
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let format = name.split('.').next().unwrap().to_string();
            (FormatId::custom(format), std::fs::read(&path).unwrap())
        })
        .collect();
    fixtures.sort();
    assert_eq!(fixtures.len(), 14, "one fixture per (format, kind)");
    fixtures
}

/// The paths of the text fields of `v`.
fn text_paths(v: &Value, path: &str, out: &mut Vec<String>) {
    match v {
        Value::Text(_) => out.push(path.to_string()),
        Value::List(items) => {
            for (i, item) in items.iter().enumerate() {
                text_paths(item, &format!("{path}[{i}]"), out);
            }
        }
        Value::Record(fields) => {
            for (key, value) in fields.iter() {
                let path = if path.is_empty() { key.to_string() } else { format!("{path}.{key}") };
                text_paths(value, &path, out);
            }
        }
        _ => {}
    }
}

/// Printable ASCII and line breaks, so every syntax's delimiters, often
/// with a space before or after.
fn awkward_text() -> impl Strategy<Value = String> {
    ("[ -~\r\n]{0,10}", 0u8..4).prop_map(|(text, pad)| match pad {
        0 => format!(" {text}"),
        1 => format!("{text} "),
        _ => text,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn encoders_write_only_what_their_decoders_read_back(
        pick in 0usize..14,
        field in any::<u64>(),
        text in awkward_text(),
    ) {
        // One free-text field of a recorded document gets awkward text:
        // the encoder either refuses it, naming the field, or writes what
        // the decoder reads back as the same document body.
        let formats = FormatRegistry::with_builtins();
        let (format, wire) = &wire_fixtures()[pick];
        let mut doc = formats.decode(format, wire).unwrap();
        let mut paths = Vec::new();
        text_paths(doc.body(), "", &mut paths);
        let path = &paths[(field % paths.len() as u64) as usize];
        doc.set(path, Value::text(text.as_str())).unwrap();
        match formats.encode(&doc) {
            Err(DocumentError::Encode { reason, .. }) => {
                let name = path.rsplit('.').next().unwrap();
                prop_assert!(reason.contains(&format!("`{name}`")), "{reason}");
            }
            Err(other) => prop_assert!(false, "{format} {path}: {other}"),
            Ok(bytes) => {
                let back = formats.decode(format, &bytes);
                prop_assert!(back.is_ok(), "{format} {path} = {text:?}: {back:?}");
                let back = back.unwrap();
                prop_assert_eq!(back.body(), doc.body(), "{} {} = {:?}", format, path, text);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Pipeline invariants: random POs survive every format round trip.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn built_pos_are_internally_consistent(po in normalized_po()) {
        prop_assert!(check_total_consistency(&po).is_ok());
        prop_assert!(semantic_b2b::document::normalized::po_schema().accepts(&po));
    }

    #[test]
    fn normalized_po_roundtrips_through_every_format(po in normalized_po()) {
        let transforms = TransformRegistry::with_builtins();
        let ctx = TransformContext::new("ACME", "GADGET", "000000001", "i-1");
        for format in [
            FormatId::EDI_X12,
            FormatId::ROSETTANET,
            FormatId::OAGIS,
            FormatId::SAP_IDOC,
            FormatId::ORACLE_APPS,
            FormatId::BINARY,
        ] {
            let down = transforms.transform(&po, &format, &ctx).unwrap();
            let back = transforms.transform(&down, &FormatId::NORMALIZED, &ctx).unwrap();
            prop_assert_eq!(back.body(), po.body(), "{}", format);
        }
    }

    #[test]
    fn wire_codecs_roundtrip_transformed_pos(po in normalized_po()) {
        let transforms = TransformRegistry::with_builtins();
        let formats = FormatRegistry::with_builtins();
        let ctx = TransformContext::new("ACME", "GADGET", "000000001", "i-1");
        for format in [FormatId::EDI_X12, FormatId::ROSETTANET, FormatId::OAGIS, FormatId::BINARY] {
            let wire_doc = transforms.transform(&po, &format, &ctx).unwrap();
            let bytes = formats.encode(&wire_doc).unwrap();
            let decoded = formats.decode(&format, &bytes).unwrap();
            prop_assert_eq!(decoded.body(), wire_doc.body(), "{}", format);
            prop_assert_eq!(decoded.correlation(), wire_doc.correlation());
        }
    }

    #[test]
    fn every_codec_reencodes_to_identical_wire_bytes(po in normalized_po()) {
        // Cross-codec identity: decode -> encode is the identity on wire
        // bytes for all six codecs — a decoded document carries everything
        // its canonical encoding needs, bit for bit.
        let transforms = TransformRegistry::with_builtins();
        let formats = FormatRegistry::with_builtins();
        let ctx = TransformContext::new("ACME", "GADGET", "000000001", "i-1");
        for format in [
            FormatId::EDI_X12,
            FormatId::ROSETTANET,
            FormatId::OAGIS,
            FormatId::SAP_IDOC,
            FormatId::ORACLE_APPS,
            FormatId::BINARY,
        ] {
            let wire_doc = transforms.transform(&po, &format, &ctx).unwrap();
            let bytes = formats.encode(&wire_doc).unwrap();
            let decoded = formats.decode(&format, &bytes).unwrap();
            prop_assert_eq!(&formats.encode(&decoded).unwrap(), &bytes, "{}", format);
        }
    }

    #[test]
    fn borrowed_and_owned_binary_decodes_are_indistinguishable(po in normalized_po()) {
        // The zero-copy decode path (text borrowed from the payload
        // `Bytes`) and the plain path (owned strings) must produce
        // documents that compare equal, re-encode to identical wire
        // bytes, and serialize to the same JSON-ish structural
        // fingerprint — ownership of a `Str` is invisible everywhere.
        let transforms = TransformRegistry::with_builtins();
        let formats = FormatRegistry::with_builtins();
        let ctx = TransformContext::new("ACME", "GADGET", "000000001", "i-1");
        let wire_doc = transforms.transform(&po, &FormatId::BINARY, &ctx).unwrap();
        let wire = Bytes::from(formats.encode(&wire_doc).unwrap());
        let owned = formats.decode(&FormatId::BINARY, &wire).unwrap();
        let borrowed = formats.decode_bytes(&FormatId::BINARY, &wire).unwrap();
        prop_assert_eq!(&borrowed, &owned);
        prop_assert_eq!(&formats.encode(&borrowed).unwrap(), &formats.encode(&owned).unwrap());
        prop_assert_eq!(
            serde_json::to_string(borrowed.body()).unwrap(),
            serde_json::to_string(owned.body()).unwrap(),
            "structural fingerprints diverged between borrowed and owned text"
        );
    }

    #[test]
    fn binary_decoder_never_panics_on_mutated_payloads(
        po in normalized_po(),
        cut in 0usize..=100,
        flips in prop::collection::vec((0usize..4096, any::<u8>()), 0..8),
    ) {
        // Decoder hardening: arbitrary truncations and byte flips of a
        // valid payload (length prefixes, tags, counts, UTF-8 — anything
        // can be hit) must yield Ok or a Parse error, never a panic or
        // an unbounded allocation.
        let transforms = TransformRegistry::with_builtins();
        let formats = FormatRegistry::with_builtins();
        let ctx = TransformContext::new("ACME", "GADGET", "000000001", "i-1");
        let wire_doc = transforms.transform(&po, &FormatId::BINARY, &ctx).unwrap();
        let mut bytes = formats.encode(&wire_doc).unwrap();
        for (at, byte) in &flips {
            let len = bytes.len();
            bytes[at % len] = *byte;
        }
        bytes.truncate(bytes.len() * cut / 100);
        let mutated = Bytes::from(bytes);
        // Both decode paths: plain slice and shared-payload.
        if let Ok(doc) = formats.decode(&FormatId::BINARY, &mutated) {
            // A surviving decode must still re-encode cleanly.
            formats.encode(&doc).unwrap();
        }
        if let Ok(doc) = formats.decode_bytes(&FormatId::BINARY, &mutated) {
            formats.encode(&doc).unwrap();
        }
    }

    #[test]
    fn text_decoders_never_panic_on_mutated_payloads(
        pick in 0usize..14,
        cut in 0usize..=100,
        flips in prop::collection::vec((0usize..4096, any::<u8>()), 0..8),
    ) {
        // Truncations and byte flips of every recorded wire form return a
        // document or a decode error, never a panic. A flipped digit can
        // make an impossible date and a flipped letter an unknown currency,
        // so `Date` and `Money` are decode errors here too.
        let formats = FormatRegistry::with_builtins();
        let (format, wire) = &wire_fixtures()[pick];
        let mut bytes = wire.clone();
        for (at, byte) in &flips {
            let len = bytes.len();
            bytes[at % len] = *byte;
        }
        bytes.truncate(bytes.len() * cut / 100);
        match formats.decode_bytes(format, &Bytes::from(bytes)) {
            Ok(_)
            | Err(DocumentError::Parse { .. })
            | Err(DocumentError::UnsupportedKind { .. })
            | Err(DocumentError::Date { .. })
            | Err(DocumentError::Money { .. }) => {}
            Err(other) => prop_assert!(false, "{format}: {other:?}"),
        }
    }

    #[test]
    fn poas_roundtrip_through_every_format(
        po in normalized_po(),
        status in prop_oneof![
            Just("accepted"),
            Just("rejected"),
            Just("accepted-with-changes")
        ],
        ack in date(),
    ) {
        let poa = build_poa(&po, status, ack).unwrap();
        let transforms = TransformRegistry::with_builtins();
        // POA travels seller -> buyer.
        let seller = po.get("header.seller").unwrap().as_text("s").unwrap().to_string();
        let buyer = po.get("header.buyer").unwrap().as_text("b").unwrap().to_string();
        let ctx = TransformContext::new(&seller, &buyer, "000000002", "i-2");
        for format in [
            FormatId::EDI_X12,
            FormatId::ROSETTANET,
            FormatId::OAGIS,
            FormatId::SAP_IDOC,
            FormatId::ORACLE_APPS,
            FormatId::BINARY,
        ] {
            let down = transforms.transform(&poa, &format, &ctx).unwrap();
            let back = transforms.transform(&down, &FormatId::NORMALIZED, &ctx).unwrap();
            prop_assert_eq!(back.body(), poa.body(), "{}", format);
        }
    }

    #[test]
    fn reliable_messaging_is_exactly_once_or_dead_lettered(
        loss in (0.0f64..1.05).prop_map(|x| x.min(1.0)),
        duplicate in 0.0f64..0.5,
        corrupt in 0.0f64..0.7,
        seed in any::<u64>(),
        count in 1usize..8,
    ) {
        // Under an arbitrary fault mix, every message a sender hands to the
        // reliable layer ends in exactly one observable place: surfaced
        // once (and uncorrupted) at the receiver, or returned by `tick` as
        // permanently failed for dead-lettering — never silently lost, and
        // never surfaced twice. At the sender every send ends exactly
        // once, acknowledged or returned failed, never both, and only a
        // delivered message is ever acknowledged.
        let faults = FaultConfig { loss, duplicate, corrupt, min_delay_ms: 1, max_delay_ms: 40 };
        let mut net = SimNetwork::new(faults, seed);
        let config = ReliableConfig::fixed(50, 6);
        let mut a = ReliableEndpoint::new(EndpointId::new("a"), config.clone(), &mut net).unwrap();
        let mut b = ReliableEndpoint::new(EndpointId::new("b"), config, &mut net).unwrap();
        let to = b.id().clone();
        let mut sent = Vec::new();
        for i in 0..count {
            sent.push(
                a.send(&mut net, &to, FormatId::EDI_X12, Bytes::from(format!("m{i}"))).unwrap(),
            );
        }
        let mut delivered = BTreeSet::new();
        let mut dead = BTreeSet::new();
        let mut acked = BTreeSet::new();
        for _ in 0..1_000 {
            net.advance(10);
            for (env, _) in a.tick(&mut net).unwrap() {
                let id = env.id.clone();
                prop_assert!(!acked.contains(&id), "message {id} failed after its ack");
                prop_assert!(dead.insert(env.id), "message {id} failed twice");
            }
            for env in b.receive(&mut net).unwrap() {
                prop_assert!(env.verify_integrity(), "corrupt payload surfaced");
                let id = env.id.clone();
                prop_assert!(delivered.insert(env.id), "duplicate surfaced: {id}");
            }
            for id in a.receive_classified(&mut net).unwrap().acked {
                prop_assert!(!dead.contains(&id), "message {id} acknowledged after it failed");
                prop_assert!(acked.insert(id.clone()), "message {id} acknowledged twice");
            }
        }
        for id in &sent {
            prop_assert!(
                delivered.contains(id) || dead.contains(id),
                "message {id} was silently lost"
            );
            prop_assert!(
                acked.contains(id) || dead.contains(id),
                "message {id} never ended at the sender"
            );
        }
        prop_assert_eq!(acked.len() + dead.len(), sent.len(), "an end the sender never sent");
        prop_assert!(acked.is_subset(&delivered), "an undelivered message was acknowledged");
    }

    #[test]
    fn approval_rule_agrees_with_direct_comparison(
        amount in 0i64..200_000,
        threshold in 0i64..200_000,
    ) {
        let f = semantic_b2b::rules::approval::check_need_for_approval(&[
            semantic_b2b::rules::approval::ApprovalThreshold::new("SAP", "TP1", threshold),
        ]).unwrap();
        let po = semantic_b2b::document::normalized::sample_po("p", amount);
        let result = f.invoke(&RuleContext::new("TP1", "SAP", &po)).unwrap();
        prop_assert_eq!(
            result,
            semantic_b2b::document::Value::Bool(amount >= threshold)
        );
    }
}
