package sniffer

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// The filter language mirrors how the paper used Wireshark display
// filters to pick SMS codes out of decoded GSM traffic ("Wireshark to
// filter the target SMS Codes with specific rules", §V.A.2).
//
// Grammar:
//
//	expr   := and ( "||" and )*
//	and    := unary ( "&&" unary )*
//	unary  := "!" unary | "(" expr ")" | cmp
//	cmp    := field op value
//	field  := "sms.src" | "sms.text" | "arfcn" | "sms.encrypted"
//	op     := "==" | "!=" | "contains" | "matches"
//	value  := double-quoted string | integer | "true" | "false"
//
// Examples:
//
//	sms.text contains "code"
//	sms.src == "Google" || sms.src == "Facebook"
//	arfcn == 512 && sms.text matches "G-[0-9]{6}"

// Filter is a compiled predicate over captures.
type Filter interface {
	// Match reports whether the capture satisfies the filter.
	Match(c Capture) bool
	// String renders the filter back to source form.
	String() string
}

// ParseFilter compiles a filter expression.
func ParseFilter(src string) (Filter, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	expr, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, fmt.Errorf("sniffer: unexpected trailing token %q", p.peek().text)
	}
	return expr, nil
}

// --- lexer ---

type tokKind int

const (
	tokField tokKind = iota + 1
	tokOp
	tokString
	tokInt
	tokBool
	tokAnd
	tokOr
	tokNot
	tokLParen
	tokRParen
)

type token struct {
	kind tokKind
	text string
}

func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n':
			i++
		case c == '(':
			toks = append(toks, token{tokLParen, "("})
			i++
		case c == ')':
			toks = append(toks, token{tokRParen, ")"})
			i++
		case c == '!' && i+1 < len(src) && src[i+1] == '=':
			toks = append(toks, token{tokOp, "!="})
			i += 2
		case c == '!':
			toks = append(toks, token{tokNot, "!"})
			i++
		case c == '&':
			if i+1 >= len(src) || src[i+1] != '&' {
				return nil, fmt.Errorf("sniffer: lone '&' at offset %d", i)
			}
			toks = append(toks, token{tokAnd, "&&"})
			i += 2
		case c == '|':
			if i+1 >= len(src) || src[i+1] != '|' {
				return nil, fmt.Errorf("sniffer: lone '|' at offset %d", i)
			}
			toks = append(toks, token{tokOr, "||"})
			i += 2
		case c == '=':
			if i+1 >= len(src) || src[i+1] != '=' {
				return nil, fmt.Errorf("sniffer: lone '=' at offset %d (use ==)", i)
			}
			toks = append(toks, token{tokOp, "=="})
			i += 2
		case c == '"':
			j := i + 1
			for j < len(src) && src[j] != '"' {
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("sniffer: unterminated string at offset %d", i)
			}
			toks = append(toks, token{tokString, src[i+1 : j]})
			i = j + 1
		case c >= '0' && c <= '9':
			j := i
			for j < len(src) && src[j] >= '0' && src[j] <= '9' {
				j++
			}
			toks = append(toks, token{tokInt, src[i:j]})
			i = j
		case isIdentChar(c):
			j := i
			for j < len(src) && isIdentChar(src[j]) {
				j++
			}
			word := src[i:j]
			switch word {
			case "contains", "matches":
				toks = append(toks, token{tokOp, word})
			case "true", "false":
				toks = append(toks, token{tokBool, word})
			case "sms.src", "sms.text", "arfcn", "sms.encrypted":
				toks = append(toks, token{tokField, word})
			default:
				return nil, fmt.Errorf("sniffer: unknown word %q", word)
			}
			i = j
		default:
			return nil, fmt.Errorf("sniffer: unexpected character %q at offset %d", c, i)
		}
	}
	return toks, nil
}

func isIdentChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '.' || c == '_'
}

// --- parser ---

type parser struct {
	toks []token
	pos  int
}

func (p *parser) eof() bool      { return p.pos >= len(p.toks) }
func (p *parser) peek() token    { return p.toks[p.pos] }
func (p *parser) advance() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) parseExpr() (Filter, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for !p.eof() && p.peek().kind == tokOr {
		p.advance()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &binExpr{op: "||", l: left, r: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Filter, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for !p.eof() && p.peek().kind == tokAnd {
		p.advance()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &binExpr{op: "&&", l: left, r: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (Filter, error) {
	if p.eof() {
		return nil, fmt.Errorf("sniffer: unexpected end of filter")
	}
	switch p.peek().kind {
	case tokNot:
		p.advance()
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &notExpr{inner}, nil
	case tokLParen:
		p.advance()
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.eof() || p.peek().kind != tokRParen {
			return nil, fmt.Errorf("sniffer: missing closing parenthesis")
		}
		p.advance()
		return &parenExpr{inner}, nil
	case tokField:
		return p.parseCmp()
	default:
		return nil, fmt.Errorf("sniffer: unexpected token %q", p.peek().text)
	}
}

func (p *parser) parseCmp() (Filter, error) {
	field := p.advance().text
	if p.eof() || p.peek().kind != tokOp {
		return nil, fmt.Errorf("sniffer: expected operator after %q", field)
	}
	op := p.advance().text
	if p.eof() {
		return nil, fmt.Errorf("sniffer: expected value after %q %s", field, op)
	}
	val := p.advance()

	switch field {
	case "arfcn":
		if val.kind != tokInt {
			return nil, fmt.Errorf("sniffer: arfcn requires an integer value")
		}
		if op != "==" && op != "!=" {
			return nil, fmt.Errorf("sniffer: arfcn supports only == and !=")
		}
		n, err := strconv.Atoi(val.text)
		if err != nil {
			return nil, fmt.Errorf("sniffer: bad arfcn %q", val.text)
		}
		return &intCmp{field: field, op: op, val: n}, nil
	case "sms.encrypted":
		if val.kind != tokBool {
			return nil, fmt.Errorf("sniffer: sms.encrypted requires true or false")
		}
		if op != "==" && op != "!=" {
			return nil, fmt.Errorf("sniffer: sms.encrypted supports only == and !=")
		}
		return &boolCmp{field: field, op: op, val: val.text == "true"}, nil
	case "sms.src", "sms.text":
		if val.kind != tokString {
			return nil, fmt.Errorf("sniffer: %s requires a quoted string", field)
		}
		if op == "matches" {
			re, err := regexp.Compile(val.text)
			if err != nil {
				return nil, fmt.Errorf("sniffer: bad regexp %q: %v", val.text, err)
			}
			return &reCmp{field: field, re: re, src: val.text}, nil
		}
		if op != "==" && op != "!=" && op != "contains" {
			return nil, fmt.Errorf("sniffer: unsupported operator %q for %s", op, field)
		}
		return &strCmp{field: field, op: op, val: val.text}, nil
	default:
		return nil, fmt.Errorf("sniffer: unknown field %q", field)
	}
}

// --- AST nodes ---

type binExpr struct {
	op   string
	l, r Filter
}

func (e *binExpr) Match(c Capture) bool {
	if e.op == "&&" {
		return e.l.Match(c) && e.r.Match(c)
	}
	return e.l.Match(c) || e.r.Match(c)
}

func (e *binExpr) String() string {
	return e.l.String() + " " + e.op + " " + e.r.String()
}

type notExpr struct{ inner Filter }

func (e *notExpr) Match(c Capture) bool { return !e.inner.Match(c) }
func (e *notExpr) String() string       { return "!" + e.inner.String() }

type parenExpr struct{ inner Filter }

func (e *parenExpr) Match(c Capture) bool { return e.inner.Match(c) }
func (e *parenExpr) String() string       { return "(" + e.inner.String() + ")" }

type strCmp struct {
	field string
	op    string
	val   string
}

func (e *strCmp) fieldValue(c Capture) string {
	if e.field == "sms.src" {
		return c.Originator
	}
	return c.Text
}

func (e *strCmp) Match(c Capture) bool {
	v := e.fieldValue(c)
	switch e.op {
	case "==":
		return v == e.val
	case "!=":
		return v != e.val
	case "contains":
		return strings.Contains(v, e.val)
	}
	return false
}

func (e *strCmp) String() string {
	return fmt.Sprintf("%s %s %q", e.field, e.op, e.val)
}

type reCmp struct {
	field string
	re    *regexp.Regexp
	src   string
}

func (e *reCmp) Match(c Capture) bool {
	v := c.Text
	if e.field == "sms.src" {
		v = c.Originator
	}
	return e.re.MatchString(v)
}

func (e *reCmp) String() string {
	return fmt.Sprintf("%s matches %q", e.field, e.src)
}

type intCmp struct {
	field string
	op    string
	val   int
}

func (e *intCmp) Match(c Capture) bool {
	if e.op == "==" {
		return c.ARFCN == e.val
	}
	return c.ARFCN != e.val
}

func (e *intCmp) String() string {
	return fmt.Sprintf("%s %s %d", e.field, e.op, e.val)
}

type boolCmp struct {
	field string
	op    string
	val   bool
}

func (e *boolCmp) Match(c Capture) bool {
	if e.op == "==" {
		return c.Encrypted == e.val
	}
	return c.Encrypted != e.val
}

func (e *boolCmp) String() string {
	return fmt.Sprintf("%s %s %t", e.field, e.op, e.val)
}
