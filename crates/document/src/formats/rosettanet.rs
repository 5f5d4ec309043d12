//! RosettaNet codec: PIP 3A4 purchase-order request/confirmation plus the
//! RNIF receipt-acknowledgment and exception signals.
//!
//! The RosettaNet-shaped body keeps a service header (from/to partner,
//! PIP code, instance id) separate from the business payload, mirroring
//! how PIPs layer on RNIF.

use super::util::{decimal_to_money, field, money_to_decimal, parse_int, string_encode_into};
use super::{FormatCodec, FormatId};
use crate::date::Date;
use crate::document::{DocKind, Document};
use crate::error::{DocumentError, Result};
use crate::ids::{CorrelationId, DocumentId};
use crate::intern::{intern, Symbol};
use crate::money::Currency;
use crate::value::{ElementAt, Value};
use crate::xml::{parse_element, write_element_into, XmlElement};
use crate::{record, record_sym};

const FORMAT: &str = "rosettanet";

/// PIP 3A4 response codes carried per line and per document.
pub const RN_ACCEPT: &str = "Accept";
/// Rejected.
pub const RN_REJECT: &str = "Reject";
/// Accepted with modifications.
pub const RN_MODIFY: &str = "Modify";

/// Field symbols used by decoded RosettaNet bodies, interned once at
/// codec construction so decoding allocates no key strings.
#[derive(Debug, Clone)]
struct Syms {
    service_header: Symbol,
    from_: Symbol,
    to_: Symbol,
    pip_code: Symbol,
    instance_id: Symbol,
    purchase_order: Symbol,
    po_number: Symbol,
    order_date: Symbol,
    currency: Symbol,
    buyer: Symbol,
    seller: Symbol,
    lines: Symbol,
    line_number: Symbol,
    product_id: Symbol,
    quantity: Symbol,
    unit_price: Symbol,
    total_amount: Symbol,
    confirmation: Symbol,
    response_code: Symbol,
    ack_date: Symbol,
    quote_request: Symbol,
    rfq_number: Symbol,
    item: Symbol,
    respond_by: Symbol,
    quote: Symbol,
    valid_until: Symbol,
    ref_instance_id: Symbol,
}

impl Default for Syms {
    fn default() -> Self {
        Self {
            service_header: intern("service_header"),
            from_: intern("from"),
            to_: intern("to"),
            pip_code: intern("pip_code"),
            instance_id: intern("instance_id"),
            purchase_order: intern("purchase_order"),
            po_number: intern("po_number"),
            order_date: intern("order_date"),
            currency: intern("currency"),
            buyer: intern("buyer"),
            seller: intern("seller"),
            lines: intern("lines"),
            line_number: intern("line_number"),
            product_id: intern("product_id"),
            quantity: intern("quantity"),
            unit_price: intern("unit_price"),
            total_amount: intern("total_amount"),
            confirmation: intern("confirmation"),
            response_code: intern("response_code"),
            ack_date: intern("ack_date"),
            quote_request: intern("quote_request"),
            rfq_number: intern("rfq_number"),
            item: intern("item"),
            respond_by: intern("respond_by"),
            quote: intern("quote"),
            valid_until: intern("valid_until"),
            ref_instance_id: intern("ref_instance_id"),
        }
    }
}

/// Codec for RosettaNet PIP documents.
#[derive(Debug, Default, Clone)]
pub struct RosettaNetCodec {
    syms: Syms,
}

fn parse_err(reason: impl Into<String>) -> DocumentError {
    DocumentError::Parse { format: FORMAT.into(), offset: 0, reason: reason.into() }
}

fn service_header_xml(doc: &Document) -> Result<XmlElement> {
    let body = doc.body().as_record("$")?;
    let hdr = field(body, "service_header", FORMAT)?.as_record("service_header")?;
    Ok(XmlElement::new("ServiceHeader")
        .child(XmlElement::with_text(
            "FromPartner",
            field(hdr, "from", FORMAT)?.as_text("service_header.from")?,
        ))
        .child(XmlElement::with_text(
            "ToPartner",
            field(hdr, "to", FORMAT)?.as_text("service_header.to")?,
        ))
        .child(XmlElement::with_text(
            "PipCode",
            field(hdr, "pip_code", FORMAT)?.as_text("service_header.pip_code")?,
        ))
        .child(XmlElement::with_text(
            "PipInstanceId",
            field(hdr, "instance_id", FORMAT)?.as_text("service_header.instance_id")?,
        )))
}

fn service_header_value(s: &Syms, root: &XmlElement) -> Result<(Value, String)> {
    let hdr = root.find("ServiceHeader").ok_or_else(|| parse_err("missing ServiceHeader"))?;
    let get = |name: &str| -> Result<String> {
        hdr.child_text(name).ok_or_else(|| parse_err(format!("missing ServiceHeader/{name}")))
    };
    let instance_id = get("PipInstanceId")?;
    Ok((
        record_sym! {
            s.from_ => Value::text(get("FromPartner")?),
            s.to_ => Value::text(get("ToPartner")?),
            s.pip_code => Value::text(get("PipCode")?),
            s.instance_id => Value::text(&instance_id),
        },
        instance_id,
    ))
}

impl RosettaNetCodec {
    /// Shared front half of `encode`/`encode_into`: format and kind checks
    /// plus building the element tree.
    fn element_of(&self, doc: &Document) -> Result<XmlElement> {
        if doc.format() != &FormatId::ROSETTANET {
            return Err(DocumentError::Encode {
                format: FORMAT.into(),
                reason: format!("document is in format {}", doc.format()),
            });
        }
        match doc.kind() {
            DocKind::PurchaseOrder => self.encode_po(doc),
            DocKind::PurchaseOrderAck => self.encode_poa(doc),
            DocKind::RequestForQuote => self.encode_rfq(doc),
            DocKind::Quote => self.encode_quote(doc),
            DocKind::Receipt => self.encode_signal(doc, "ReceiptAcknowledgment"),
            DocKind::Exception => self.encode_signal(doc, "Exception"),
            other => Err(DocumentError::UnsupportedKind {
                format: FORMAT.into(),
                kind: other.to_string(),
            }),
        }
    }

    fn encode_po(&self, doc: &Document) -> Result<XmlElement> {
        let body = doc.body().as_record("$")?;
        let po = field(body, "purchase_order", FORMAT)?.as_record("purchase_order")?;
        let mut order = XmlElement::new("PurchaseOrder")
            .child(XmlElement::with_text(
                "GlobalPurchaseOrderIdentifier",
                field(po, "po_number", FORMAT)?.as_text("po_number")?,
            ))
            .child(XmlElement::with_text(
                "OrderDate",
                field(po, "order_date", FORMAT)?.as_date("order_date")?.to_string(),
            ))
            .child(XmlElement::with_text(
                "GlobalCurrencyCode",
                field(po, "currency", FORMAT)?.as_text("currency")?,
            ))
            .child(XmlElement::with_text(
                "BuyerPartner",
                field(po, "buyer", FORMAT)?.as_text("buyer")?,
            ))
            .child(XmlElement::with_text(
                "SellerPartner",
                field(po, "seller", FORMAT)?.as_text("seller")?,
            ));
        for (i, line) in field(po, "lines", FORMAT)?.as_list("lines")?.iter().enumerate() {
            let at = ElementAt("lines", i);
            let rec = line.as_record(at)?;
            order = order.child(
                XmlElement::new("ProductLineItem")
                    .child(XmlElement::with_text(
                        "LineNumber",
                        field(rec, "line_number", FORMAT)?.as_int(at)?.to_string(),
                    ))
                    .child(XmlElement::with_text(
                        "GlobalProductIdentifier",
                        field(rec, "product_id", FORMAT)?.as_text(at)?,
                    ))
                    .child(XmlElement::with_text(
                        "OrderQuantity",
                        field(rec, "quantity", FORMAT)?.as_int(at)?.to_string(),
                    ))
                    .child(XmlElement::with_text(
                        "UnitPrice",
                        money_to_decimal(field(rec, "unit_price", FORMAT)?.as_money(at)?),
                    )),
            );
        }
        order = order.child(XmlElement::with_text(
            "TotalAmount",
            money_to_decimal(field(po, "total_amount", FORMAT)?.as_money("total_amount")?),
        ));
        Ok(XmlElement::new("Pip3A4PurchaseOrderRequest")
            .child(service_header_xml(doc)?)
            .child(order))
    }

    fn encode_poa(&self, doc: &Document) -> Result<XmlElement> {
        let body = doc.body().as_record("$")?;
        let conf = field(body, "confirmation", FORMAT)?.as_record("confirmation")?;
        let mut el = XmlElement::new("PurchaseOrderConfirmation")
            .child(XmlElement::with_text(
                "GlobalPurchaseOrderIdentifier",
                field(conf, "po_number", FORMAT)?.as_text("po_number")?,
            ))
            .child(XmlElement::with_text(
                "GlobalPurchaseOrderAcknowledgmentCode",
                field(conf, "response_code", FORMAT)?.as_text("response_code")?,
            ))
            .child(XmlElement::with_text(
                "AcknowledgmentDate",
                field(conf, "ack_date", FORMAT)?.as_date("ack_date")?.to_string(),
            ));
        for (i, line) in field(conf, "lines", FORMAT)?.as_list("lines")?.iter().enumerate() {
            let at = ElementAt("lines", i);
            let rec = line.as_record(at)?;
            el = el.child(
                XmlElement::new("ProductLineItem")
                    .child(XmlElement::with_text(
                        "LineNumber",
                        field(rec, "line_number", FORMAT)?.as_int(at)?.to_string(),
                    ))
                    .child(XmlElement::with_text(
                        "GlobalPurchaseOrderAcknowledgmentCode",
                        field(rec, "response_code", FORMAT)?.as_text(at)?,
                    ))
                    .child(XmlElement::with_text(
                        "OrderQuantity",
                        field(rec, "quantity", FORMAT)?.as_int(at)?.to_string(),
                    )),
            );
        }
        Ok(XmlElement::new("Pip3A4PurchaseOrderConfirmation")
            .child(service_header_xml(doc)?)
            .child(el))
    }

    fn encode_signal(&self, doc: &Document, root: &str) -> Result<XmlElement> {
        let body = doc.body().as_record("$")?;
        let reference = field(body, "ref_instance_id", FORMAT)?.as_text("ref_instance_id")?;
        Ok(XmlElement::new(root)
            .child(service_header_xml(doc)?)
            .child(XmlElement::with_text("ReferencedInstanceId", reference)))
    }

    fn decode_po(&self, root: &XmlElement) -> Result<Document> {
        let s = &self.syms;
        let (header, instance_id) = service_header_value(s, root)?;
        let po = root.find("PurchaseOrder").ok_or_else(|| parse_err("missing PurchaseOrder"))?;
        let get = |name: &str| -> Result<String> {
            po.child_text(name).ok_or_else(|| parse_err(format!("missing PurchaseOrder/{name}")))
        };
        let po_number = get("GlobalPurchaseOrderIdentifier")?;
        let currency_code = get("GlobalCurrencyCode")?;
        let currency = Currency::parse(&currency_code)?;
        let mut lines = Vec::new();
        for (i, item) in po.find_all("ProductLineItem").enumerate() {
            let get = |name: &str| -> Result<String> {
                item.child_text(name).ok_or_else(|| parse_err(format!("line {i}: missing {name}")))
            };
            lines.push(record_sym! {
                s.line_number => Value::Int(parse_int(&get("LineNumber")?, "LineNumber", FORMAT)?),
                s.product_id => Value::text(get("GlobalProductIdentifier")?),
                s.quantity => Value::Int(parse_int(&get("OrderQuantity")?, "OrderQuantity", FORMAT)?),
                s.unit_price => Value::Money(decimal_to_money(&get("UnitPrice")?, currency, FORMAT)?),
            });
        }
        let body = record_sym! {
            s.service_header => header,
            s.purchase_order => record_sym! {
                s.po_number => Value::text(&po_number),
                s.order_date => Value::Date(Date::parse_iso(&get("OrderDate")?)?),
                s.currency => Value::text(&currency_code),
                s.buyer => Value::text(get("BuyerPartner")?),
                s.seller => Value::text(get("SellerPartner")?),
                s.lines => Value::List(lines),
                s.total_amount => Value::Money(decimal_to_money(&get("TotalAmount")?, currency, FORMAT)?),
            },
        };
        Ok(Document::with_id(
            DocumentId::new(format!("rn-{instance_id}")),
            DocKind::PurchaseOrder,
            FormatId::ROSETTANET,
            CorrelationId::for_po_number(&po_number),
            body,
        ))
    }

    fn decode_poa(&self, root: &XmlElement) -> Result<Document> {
        let s = &self.syms;
        let (header, instance_id) = service_header_value(s, root)?;
        let conf = root
            .find("PurchaseOrderConfirmation")
            .ok_or_else(|| parse_err("missing PurchaseOrderConfirmation"))?;
        let get = |name: &str| -> Result<String> {
            conf.child_text(name).ok_or_else(|| parse_err(format!("missing {name}")))
        };
        let po_number = get("GlobalPurchaseOrderIdentifier")?;
        let mut lines = Vec::new();
        for (i, item) in conf.find_all("ProductLineItem").enumerate() {
            let get = |name: &str| -> Result<String> {
                item.child_text(name).ok_or_else(|| parse_err(format!("line {i}: missing {name}")))
            };
            lines.push(record_sym! {
                s.line_number => Value::Int(parse_int(&get("LineNumber")?, "LineNumber", FORMAT)?),
                s.response_code => Value::text(get("GlobalPurchaseOrderAcknowledgmentCode")?),
                s.quantity => Value::Int(parse_int(&get("OrderQuantity")?, "OrderQuantity", FORMAT)?),
            });
        }
        let body = record_sym! {
            s.service_header => header,
            s.confirmation => record_sym! {
                s.po_number => Value::text(&po_number),
                s.response_code => Value::text(get("GlobalPurchaseOrderAcknowledgmentCode")?),
                s.ack_date => Value::Date(Date::parse_iso(&get("AcknowledgmentDate")?)?),
                s.lines => Value::List(lines),
            },
        };
        Ok(Document::with_id(
            DocumentId::new(format!("rn-{instance_id}")),
            DocKind::PurchaseOrderAck,
            FormatId::ROSETTANET,
            CorrelationId::for_po_number(&po_number),
            body,
        ))
    }

    fn encode_rfq(&self, doc: &Document) -> Result<XmlElement> {
        let body = doc.body().as_record("$")?;
        let rfq = field(body, "quote_request", FORMAT)?.as_record("quote_request")?;
        let el = XmlElement::new("QuoteRequest")
            .child(XmlElement::with_text(
                "GlobalQuoteRequestIdentifier",
                field(rfq, "rfq_number", FORMAT)?.as_text("rfq_number")?,
            ))
            .child(XmlElement::with_text(
                "BuyerPartner",
                field(rfq, "buyer", FORMAT)?.as_text("buyer")?,
            ))
            .child(XmlElement::with_text(
                "GlobalProductIdentifier",
                field(rfq, "item", FORMAT)?.as_text("item")?,
            ))
            .child(XmlElement::with_text(
                "RequestedQuantity",
                field(rfq, "quantity", FORMAT)?.as_int("quantity")?.to_string(),
            ))
            .child(XmlElement::with_text(
                "QuoteDeadline",
                field(rfq, "respond_by", FORMAT)?.as_date("respond_by")?.to_string(),
            ));
        Ok(XmlElement::new("Pip3A1QuoteRequest").child(service_header_xml(doc)?).child(el))
    }

    fn encode_quote(&self, doc: &Document) -> Result<XmlElement> {
        let body = doc.body().as_record("$")?;
        let quote = field(body, "quote", FORMAT)?.as_record("quote")?;
        let el = XmlElement::new("Quote")
            .child(XmlElement::with_text(
                "GlobalQuoteRequestIdentifier",
                field(quote, "rfq_number", FORMAT)?.as_text("rfq_number")?,
            ))
            .child(XmlElement::with_text(
                "SellerPartner",
                field(quote, "seller", FORMAT)?.as_text("seller")?,
            ))
            .child(XmlElement::with_text(
                "GlobalCurrencyCode",
                field(quote, "currency", FORMAT)?.as_text("currency")?,
            ))
            .child(XmlElement::with_text(
                "UnitPrice",
                money_to_decimal(field(quote, "unit_price", FORMAT)?.as_money("unit_price")?),
            ))
            .child(XmlElement::with_text(
                "QuoteValidUntil",
                field(quote, "valid_until", FORMAT)?.as_date("valid_until")?.to_string(),
            ));
        Ok(XmlElement::new("Pip3A1Quote").child(service_header_xml(doc)?).child(el))
    }

    fn decode_rfq(&self, root: &XmlElement) -> Result<Document> {
        let s = &self.syms;
        let (header, instance_id) = service_header_value(s, root)?;
        let rfq = root.find("QuoteRequest").ok_or_else(|| parse_err("missing QuoteRequest"))?;
        let get = |name: &str| -> Result<String> {
            rfq.child_text(name).ok_or_else(|| parse_err(format!("missing QuoteRequest/{name}")))
        };
        let rfq_number = get("GlobalQuoteRequestIdentifier")?;
        let body = record_sym! {
            s.service_header => header,
            s.quote_request => record_sym! {
                s.rfq_number => Value::text(&rfq_number),
                s.buyer => Value::text(get("BuyerPartner")?),
                s.item => Value::text(get("GlobalProductIdentifier")?),
                s.quantity => Value::Int(parse_int(&get("RequestedQuantity")?, "RequestedQuantity", FORMAT)?),
                s.respond_by => Value::Date(Date::parse_iso(&get("QuoteDeadline")?)?),
            },
        };
        Ok(Document::with_id(
            DocumentId::new(format!("rn-{instance_id}")),
            DocKind::RequestForQuote,
            FormatId::ROSETTANET,
            CorrelationId::for_rfq_number(&rfq_number),
            body,
        ))
    }

    fn decode_quote(&self, root: &XmlElement) -> Result<Document> {
        let s = &self.syms;
        let (header, instance_id) = service_header_value(s, root)?;
        let quote = root.find("Quote").ok_or_else(|| parse_err("missing Quote"))?;
        let get = |name: &str| -> Result<String> {
            quote.child_text(name).ok_or_else(|| parse_err(format!("missing Quote/{name}")))
        };
        let rfq_number = get("GlobalQuoteRequestIdentifier")?;
        let currency_code = get("GlobalCurrencyCode")?;
        let currency = Currency::parse(&currency_code)?;
        let body = record_sym! {
            s.service_header => header,
            s.quote => record_sym! {
                s.rfq_number => Value::text(&rfq_number),
                s.seller => Value::text(get("SellerPartner")?),
                s.currency => Value::text(&currency_code),
                s.unit_price => Value::Money(decimal_to_money(&get("UnitPrice")?, currency, FORMAT)?),
                s.valid_until => Value::Date(Date::parse_iso(&get("QuoteValidUntil")?)?),
            },
        };
        Ok(Document::with_id(
            DocumentId::new(format!("rn-{instance_id}")),
            DocKind::Quote,
            FormatId::ROSETTANET,
            CorrelationId::for_rfq_number(&rfq_number),
            body,
        ))
    }

    fn decode_signal(&self, root: &XmlElement, kind: DocKind) -> Result<Document> {
        let s = &self.syms;
        let (header, instance_id) = service_header_value(s, root)?;
        let reference = root
            .child_text("ReferencedInstanceId")
            .ok_or_else(|| parse_err("missing ReferencedInstanceId"))?;
        let body = record_sym! {
            s.service_header => header,
            s.ref_instance_id => Value::text(&reference),
        };
        Ok(Document::with_id(
            DocumentId::new(format!("rn-{instance_id}")),
            kind,
            FormatId::ROSETTANET,
            CorrelationId::new(reference),
            body,
        ))
    }
}

impl FormatCodec for RosettaNetCodec {
    fn format(&self) -> FormatId {
        FormatId::ROSETTANET
    }

    fn supported_kinds(&self) -> Vec<DocKind> {
        vec![
            DocKind::PurchaseOrder,
            DocKind::PurchaseOrderAck,
            DocKind::RequestForQuote,
            DocKind::Quote,
            DocKind::Receipt,
            DocKind::Exception,
        ]
    }

    fn encode(&self, doc: &Document) -> Result<Vec<u8>> {
        Ok(self.element_of(doc)?.to_xml().into_bytes())
    }

    fn encode_into(&self, doc: &Document, out: &mut Vec<u8>) -> Result<()> {
        let el = self.element_of(doc)?;
        string_encode_into(out, |s| {
            write_element_into(&el, s);
            Ok(())
        })
    }

    fn decode(&self, bytes: &[u8]) -> Result<Document> {
        let text = std::str::from_utf8(bytes).map_err(|_| parse_err("not UTF-8"))?;
        let root = parse_element(text)?;
        match root.name.as_str() {
            "Pip3A4PurchaseOrderRequest" => self.decode_po(&root),
            "Pip3A4PurchaseOrderConfirmation" => self.decode_poa(&root),
            "Pip3A1QuoteRequest" => self.decode_rfq(&root),
            "Pip3A1Quote" => self.decode_quote(&root),
            "ReceiptAcknowledgment" => self.decode_signal(&root, DocKind::Receipt),
            "Exception" => self.decode_signal(&root, DocKind::Exception),
            other => Err(DocumentError::UnsupportedKind {
                format: FORMAT.into(),
                kind: format!("root element {other}"),
            }),
        }
    }
}

/// Builds a RosettaNet-shaped PO document for tests and examples.
pub fn sample_rn_po(po_number: &str, quantity: i64) -> Document {
    let price = crate::money::Money::from_units(1, Currency::Usd);
    let total = price.checked_mul(quantity).expect("no overflow in sample");
    let body = record! {
        "service_header" => record! {
            "from" => Value::text("ACME"),
            "to" => Value::text("GADGET"),
            "pip_code" => Value::text("3A4"),
            "instance_id" => Value::text(format!("pip-{po_number}")),
        },
        "purchase_order" => record! {
            "po_number" => Value::text(po_number),
            "order_date" => Value::Date(Date::new(2001, 9, 17).expect("valid")),
            "currency" => Value::text("USD"),
            "buyer" => Value::text("ACME Manufacturing"),
            "seller" => Value::text("Gadget Supply Co"),
            "lines" => Value::List(vec![record! {
                "line_number" => Value::Int(1),
                "product_id" => Value::text("LAPTOP-T23"),
                "quantity" => Value::Int(quantity),
                "unit_price" => Value::Money(price),
            }]),
            "total_amount" => Value::Money(total),
        },
    };
    Document::new(
        DocKind::PurchaseOrder,
        FormatId::ROSETTANET,
        CorrelationId::for_po_number(po_number),
        body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn po_round_trips_through_xml() {
        let codec = RosettaNetCodec::default();
        let doc = sample_rn_po("4711", 12);
        let wire = codec.encode(&doc).unwrap();
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(text.starts_with("<Pip3A4PurchaseOrderRequest>"), "{text}");
        let back = codec.decode(&wire).unwrap();
        assert_eq!(back.body(), doc.body());
        assert_eq!(back.correlation(), doc.correlation());
    }

    #[test]
    fn poa_round_trips_through_xml() {
        let codec = RosettaNetCodec::default();
        let body = record! {
            "service_header" => record! {
                "from" => Value::text("GADGET"),
                "to" => Value::text("ACME"),
                "pip_code" => Value::text("3A4"),
                "instance_id" => Value::text("pip-4711-c"),
            },
            "confirmation" => record! {
                "po_number" => Value::text("4711"),
                "response_code" => Value::text(RN_ACCEPT),
                "ack_date" => Value::Date(Date::new(2001, 9, 18).unwrap()),
                "lines" => Value::List(vec![record! {
                    "line_number" => Value::Int(1),
                    "response_code" => Value::text(RN_ACCEPT),
                    "quantity" => Value::Int(12),
                }]),
            },
        };
        let doc = Document::new(
            DocKind::PurchaseOrderAck,
            FormatId::ROSETTANET,
            CorrelationId::for_po_number("4711"),
            body,
        );
        let back = codec.decode(&codec.encode(&doc).unwrap()).unwrap();
        assert_eq!(back.body(), doc.body());
    }

    #[test]
    fn receipt_signal_round_trips() {
        let codec = RosettaNetCodec::default();
        let body = record! {
            "service_header" => record! {
                "from" => Value::text("GADGET"),
                "to" => Value::text("ACME"),
                "pip_code" => Value::text("3A4"),
                "instance_id" => Value::text("sig-1"),
            },
            "ref_instance_id" => Value::text("pip-4711"),
        };
        let doc = Document::new(
            DocKind::Receipt,
            FormatId::ROSETTANET,
            CorrelationId::new("pip-4711"),
            body,
        );
        let back = codec.decode(&codec.encode(&doc).unwrap()).unwrap();
        assert_eq!(back.kind(), DocKind::Receipt);
        assert_eq!(back.body(), doc.body());
    }

    #[test]
    fn rfq_and_quote_round_trip_through_xml() {
        let codec = RosettaNetCodec::default();
        let rfq_body = record! {
            "service_header" => record! {
                "from" => Value::text("ACME"),
                "to" => Value::text("GADGET"),
                "pip_code" => Value::text("3A1"),
                "instance_id" => Value::text("pip-rfq-9"),
            },
            "quote_request" => record! {
                "rfq_number" => Value::text("9"),
                "buyer" => Value::text("ACME Manufacturing"),
                "item" => Value::text("LAPTOP-T23"),
                "quantity" => Value::Int(100),
                "respond_by" => Value::Date(Date::new(2001, 10, 1).unwrap()),
            },
        };
        let rfq = Document::new(
            DocKind::RequestForQuote,
            FormatId::ROSETTANET,
            CorrelationId::for_rfq_number("9"),
            rfq_body,
        );
        let back = codec.decode(&codec.encode(&rfq).unwrap()).unwrap();
        assert_eq!(back.body(), rfq.body());
        assert_eq!(back.correlation(), rfq.correlation());

        let quote_body = record! {
            "service_header" => record! {
                "from" => Value::text("GADGET"),
                "to" => Value::text("ACME"),
                "pip_code" => Value::text("3A1"),
                "instance_id" => Value::text("pip-q-9"),
            },
            "quote" => record! {
                "rfq_number" => Value::text("9"),
                "seller" => Value::text("Gadget Supply Co"),
                "currency" => Value::text("USD"),
                "unit_price" => Value::Money(crate::money::Money::from_cents(94_999, Currency::Usd)),
                "valid_until" => Value::Date(Date::new(2001, 11, 1).unwrap()),
            },
        };
        let quote = Document::new(
            DocKind::Quote,
            FormatId::ROSETTANET,
            CorrelationId::for_rfq_number("9"),
            quote_body,
        );
        let back = codec.decode(&codec.encode(&quote).unwrap()).unwrap();
        assert_eq!(back.body(), quote.body());
        assert_eq!(back.correlation(), quote.correlation());
    }

    #[test]
    fn decode_rejects_unknown_root_and_missing_header() {
        let codec = RosettaNetCodec::default();
        assert!(codec.decode(b"<Unknown/>").is_err());
        assert!(codec.decode(b"<Pip3A4PurchaseOrderRequest/>").is_err());
    }
}
