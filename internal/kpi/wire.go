package kpi

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// This file is the decoder behind ReadJSON and ReadDeltaJSON: one pass over
// the document's bytes that resolves element names straight into codes.
// It accepts exactly the documents encoding/json accepted when it decoded
// them into snapshotJSON/deltaJSON, and yields the identical result; the
// rules that takes are listed in DESIGN.md ("Wire decoding"). The one that
// shapes the data structures below: encoding/json decodes a repeated key
// into the value already there, reusing slice elements in place, so a
// decoded slice carries a history — the elements past its current length
// that a later, longer array decodes into instead of starting from zero.

// maxNestingDepth is encoding/json's scanner limit: a document nested
// deeper than this is rejected.
const maxNestingDepth = 10000

// minPartBytes is the fewest bytes of a leaves or updates array one decode
// part covers: an array with fewer than two parts' worth from its first
// element to the end of the document is decoded serially, and a longer one
// on at most GOMAXPROCS and bytes/minPartBytes goroutines (splitLeaves).
const minPartBytes = 64 << 10

// sampleRows is how many rows a presized decode reads before it sizes its
// row and code slices; rows under minSizedRowBytes on average are not
// presized.
const (
	sampleRows       = 64
	minSizedRowBytes = 32
)

// missingName is the placeholder code of a combination slot no string was
// ever decoded into (a null element past the slot's history): the empty
// name, which no schema has. Element names a schema lacks get the codes
// below it, one per token, so the row check can report them by name.
const missingName int32 = -2

// readDocument reads r to EOF into a buffer of its own for ReadJSON and
// ReadDeltaJSON. A reader that reports the bytes it has left (bytes.Reader,
// strings.Reader) fills one buffer of that size plus one byte; any other
// starts at 64 KiB and doubles, copying what it has read at each step. The
// HTTP server does not come here: it reads each body once into a buffer
// sized from Content-Length and hands the bytes to ReadJSONStats or
// ReadDeltaJSONStats. The buffer is not pooled: a pool would pin
// request-sized buffers between requests (and a 115k-leaf baseline's
// between ticks), raising peak memory for little gain. A read error is
// reported only when the document's first JSON value is incomplete without
// the unread bytes: json.Decoder likewise stops reading once that value is
// complete.
func readDocument(r io.Reader) ([]byte, error) {
	size := 64 << 10
	if l, ok := r.(interface{ Len() int }); ok {
		size = l.Len() + 1
	}
	b := make([]byte, 0, size)
	for {
		if len(b) == cap(b) {
			b = append(b, make([]byte, cap(b))...)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == nil {
			continue
		}
		if err == io.EOF {
			return b, nil
		}
		d := wireDecoder{buf: b}
		if d.skip() != nil && d.pos >= len(b) {
			return nil, err
		}
		return b, nil
	}
}

// wireError is a malformed or mistyped document, located by byte offset.
type wireError struct {
	msg string
	off int
}

func (e *wireError) Error() string { return fmt.Sprintf("%s at offset %d", e.msg, e.off) }

// wireRow is one decoded leaf-shaped row. Its combination lives in the
// decoder's code arena: codes[off:off+n] is the current value and
// codes[off:off+hist] every slot written since the slice was last reset.
// A row's region only ever grows at the arena's tail, so regions of
// different rows never overlap.
type wireRow struct {
	off, n, hist     int
	actual, forecast float64
	anomalous        bool
}

// wireRows is a decoded array of rows: rows[:n] is current, rows[n:] is
// the history a later array decodes into.
type wireRows struct {
	rows []wireRow
	n    int
}

// wireAttr is one decoded attribute; values[:n] is current, values[n:] its
// history.
type wireAttr struct {
	name   string
	values []string
	n      int
}

// wireAttrs is the decoded attribute list, with the same history rule.
type wireAttrs struct {
	list []wireAttr
	n    int
}

// lastName caches, per attribute, the element name most recently resolved
// and its code: rows arrive sorted, so most lookups repeat the last one.
type lastName struct {
	name []byte
	code int32
}

// wireDecoder scans one document held in buf.
type wireDecoder struct {
	buf    []byte
	pos    int
	depth  int
	schema *Schema
	last   []lastName
	// codes is the arena every decoded combination is carved from.
	codes []int32
	// bad holds the token offset of every element name the schema lacked.
	bad []int
	// objects marks, per open nesting level, whether skip is inside an
	// object (set) or an array.
	objects [maxNestingDepth/64 + 1]uint64
}

var (
	snapshotKeys  = []string{"attributes", "leaves"}
	attributeKeys = []string{"name", "values"}
	leafKeys      = []string{"combination", "actual", "forecast", "anomalous"}
	deltaKeys     = []string{"removes", "updates", "adds"}
)

// strPlain marks the bytes a string token holds verbatim with nothing to
// check: printable ASCII other than the quote and the backslash.
var strPlain = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func (d *wireDecoder) useSchema(s *Schema) {
	d.schema = s
	d.last = make([]lastName, s.NumAttributes())
}

func (d *wireDecoder) fail(msg string) error { return &wireError{msg: msg, off: d.pos} }

// mismatch reports a value of the wrong JSON type for its field (or not a
// value at all).
func (d *wireDecoder) mismatch(want string) error {
	if d.pos >= len(d.buf) {
		return d.fail("unexpected end of JSON input")
	}
	return d.fail(fmt.Sprintf("expected %s, found %q", want, d.buf[d.pos]))
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (d *wireDecoder) peek() byte {
	for d.pos < len(d.buf) {
		switch c := d.buf[d.pos]; c {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return c
		}
	}
	return 0
}

// enter consumes a container's opening bracket.
func (d *wireDecoder) enter() error {
	d.pos++
	d.depth++
	if d.depth > maxNestingDepth {
		return d.fail("exceeded max depth")
	}
	return nil
}

// first reports whether the container just entered has an element,
// consuming the closing bracket when it is empty.
func (d *wireDecoder) first(close byte) bool {
	if d.peek() == close {
		d.pos++
		d.depth--
		return false
	}
	return true
}

// next consumes what follows an element: a comma (another element
// follows) or the closing bracket.
func (d *wireDecoder) next(close byte) (bool, error) {
	switch d.peek() {
	case ',':
		d.pos++
		return true, nil
	case close:
		d.pos++
		d.depth--
		return false, nil
	}
	return false, d.mismatch("',' or '" + string(close) + "'")
}

// str consumes the string token at d.pos, validating it as encoding/json's
// scanner does. plain reports that the bytes between the quotes are the
// string's value verbatim (no escapes, valid UTF-8); high that some of
// them are not ASCII.
func (d *wireDecoder) str() (plain, high bool, err error) {
	start := d.pos
	i := start + 1
	esc := false
	for {
		for i < len(d.buf) && strPlain[d.buf[i]] {
			i++
		}
		if i >= len(d.buf) {
			d.pos = i
			return false, false, d.fail("unexpected end of JSON input")
		}
		switch c := d.buf[i]; {
		case c == '"':
			d.pos = i + 1
			return !esc && (!high || utf8.Valid(d.buf[start+1:i])), high, nil
		case c == '\\':
			esc = true
			i++
			if i >= len(d.buf) {
				d.pos = i
				return false, false, d.fail("unexpected end of JSON input")
			}
			switch d.buf[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				i++
				for k := 0; k < 4; k++ {
					if i >= len(d.buf) || !isHex(d.buf[i]) {
						d.pos = i
						return false, false, d.mismatch("a hexadecimal digit in \\u escape")
					}
					i++
				}
			default:
				d.pos = i
				return false, false, d.fail("invalid escape in string literal")
			}
		case c < 0x20:
			d.pos = i
			return false, false, d.fail("invalid control character in string literal")
		default:
			high = true
			i++
		}
	}
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// text returns the value of the validated string token buf[start:end].
// Anything but a plain token is unquoted by encoding/json itself, so
// escapes, surrogates and invalid UTF-8 decode exactly as they always did.
func (d *wireDecoder) text(start, end int, plain bool) (string, error) {
	if plain {
		return string(d.buf[start+1 : end-1]), nil
	}
	var s string
	if err := json.Unmarshal(d.buf[start:end], &s); err != nil {
		return "", &wireError{msg: err.Error(), off: start}
	}
	return s, nil
}

// maxMantDigits is how many significant digits a decimal holds: every
// 19-digit number fits a uint64.
const maxMantDigits = 19

// decimal is a scanned number token, ±mant·10^exp with mant its first
// maxMantDigits significant digits. inexact marks a token that value alone
// cannot round: a nonzero digit past those, or an exponent too long to
// hold.
type decimal struct {
	mant    uint64
	exp     int
	neg     bool
	inexact bool
}

// scanNumber consumes a number token, validating it against the JSON
// grammar and collecting its digits in the same loop.
func (d *wireDecoder) scanNumber() (n decimal, err error) {
	b, i := d.buf, d.pos
	if i < len(b) && b[i] == '-' {
		n.neg = true
		i++
	}
	nd := 0 // significant digits in n.mant
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && isDigit(b[i]):
		for ; i < len(b) && isDigit(b[i]); i++ {
			if nd < maxMantDigits {
				n.mant = n.mant*10 + uint64(b[i]-'0')
				nd++
			} else {
				n.exp++
				n.inexact = n.inexact || b[i] != '0'
			}
		}
	default:
		d.pos = i
		return n, d.mismatch("a digit")
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || !isDigit(b[i]) {
			d.pos = i
			return n, d.mismatch("a digit after the decimal point")
		}
		for ; i < len(b) && isDigit(b[i]); i++ {
			if nd < maxMantDigits {
				// Zeros ahead of the first nonzero digit only scale.
				n.mant = n.mant*10 + uint64(b[i]-'0')
				n.exp--
				if n.mant != 0 {
					nd++
				}
			} else {
				n.inexact = n.inexact || b[i] != '0'
			}
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		neg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			neg = b[i] == '-'
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			d.pos = i
			return n, d.mismatch("a digit in the exponent")
		}
		e := 0
		for ; i < len(b) && isDigit(b[i]); i++ {
			if e < 1e5 {
				e = e*10 + int(b[i]-'0')
			} else {
				n.inexact = true
			}
		}
		if neg {
			e = -e
		}
		n.exp += e
	}
	d.pos = i
	return n, nil
}

// float64pow10 holds the powers of ten a float64 represents exactly.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// round returns n correctly rounded to a float64, as strconv.ParseFloat
// rounds it, or false when only strconv can round it: an inexact token, an
// exponent outside the power table, or a case Eisel–Lemire declines.
func (n decimal) round() (float64, bool) {
	switch {
	case n.inexact:
		return 0, false
	case n.mant <= 1<<53 && -22 <= n.exp && n.exp <= 22:
		// Clinger's fast path: mant and the power are exact float64s, so
		// one IEEE multiply or divide rounds the product correctly.
		f := float64(n.mant)
		if n.neg {
			f = -f
		}
		if n.exp >= 0 {
			return f * float64pow10[n.exp], true
		}
		return f / float64pow10[-n.exp], true
	}
	return eiselLemire64(n.mant, n.exp, n.neg)
}

// literal consumes the keyword word (true, false or null).
func (d *wireDecoder) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if d.pos >= len(d.buf) {
			return d.fail("unexpected end of JSON input")
		}
		if d.buf[d.pos] != word[i] {
			return d.fail("invalid character in literal " + word)
		}
		d.pos++
	}
	return nil
}

// skip consumes one value of any type, validating it as encoding/json's
// scanner would. It never recurses: the kind of each open container is a
// bit indexed by nesting level, so hostile nesting costs no stack and is
// cut off at maxNestingDepth.
func (d *wireDecoder) skip() error {
	base := d.depth
	for {
		switch c := d.peek(); {
		case c == '{' || c == '[':
			if err := d.enter(); err != nil {
				return err
			}
			w, bit := d.depth/64, uint64(1)<<(d.depth%64)
			if c == '{' {
				d.objects[w] |= bit
			} else {
				d.objects[w] &^= bit
			}
			if d.first(c + 2) { // '{'+2 is '}', '['+2 is ']'
				if c == '{' {
					if err := d.memberKey(); err != nil {
						return err
					}
				}
				continue
			}
		case c == '"':
			if _, _, err := d.str(); err != nil {
				return err
			}
		case c == 't':
			if err := d.literal("true"); err != nil {
				return err
			}
		case c == 'f':
			if err := d.literal("false"); err != nil {
				return err
			}
		case c == 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		case c == '-' || isDigit(c):
			if _, err := d.scanNumber(); err != nil {
				return err
			}
		default:
			return d.mismatch("a JSON value")
		}
		// A value ended: close containers until one has another element.
		for {
			if d.depth == base {
				return nil
			}
			object := d.objects[d.depth/64]&(uint64(1)<<(d.depth%64)) != 0
			close := byte(']')
			if object {
				close = '}'
			}
			more, err := d.next(close)
			if err != nil {
				return err
			}
			if more {
				if object {
					if err := d.memberKey(); err != nil {
						return err
					}
				}
				break
			}
		}
	}
}

// memberKey consumes an object key and its colon without interpreting it.
func (d *wireDecoder) memberKey() error {
	if d.peek() != '"' {
		return d.mismatch("a string key")
	}
	if _, _, err := d.str(); err != nil {
		return err
	}
	if d.peek() != ':' {
		return d.mismatch("':' after object key")
	}
	d.pos++
	return nil
}

// key consumes an object key and its colon and returns the index of the
// name in names it equals under Unicode case folding — how encoding/json
// matches keys to struct fields — or -1.
func (d *wireDecoder) key(names []string) (int, error) {
	if d.peek() != '"' {
		return -1, d.mismatch("a string key")
	}
	start := d.pos
	// Most keys are a name verbatim, closed and followed by the colon.
	for i, name := range names {
		if end := start + 1 + len(name); end+1 < len(d.buf) && d.buf[end] == '"' && d.buf[end+1] == ':' &&
			string(d.buf[start+1:end]) == name {
			d.pos = end + 2
			return i, nil
		}
	}
	plain, high, err := d.str()
	if err != nil {
		return -1, err
	}
	end := d.pos
	if d.peek() != ':' {
		return -1, d.mismatch("':' after object key")
	}
	d.pos++
	if plain && !high {
		content := d.buf[start+1 : end-1]
		for i, name := range names {
			if asciiFoldEqual(content, name) {
				return i, nil
			}
		}
		return -1, nil
	}
	k, err := d.text(start, end, plain)
	if err != nil {
		return -1, err
	}
	for i, name := range names {
		if strings.EqualFold(k, name) {
			return i, nil
		}
	}
	return -1, nil
}

// asciiFoldEqual is strings.EqualFold for an ASCII key and a lower-case
// ASCII name.
func asciiFoldEqual(key []byte, name string) bool {
	if len(key) != len(name) {
		return false
	}
	for i, c := range key {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != name[i] {
			return false
		}
	}
	return true
}

// float decodes a number into *f; null leaves *f as it was. A number that
// does not fit a float64 is rejected, as encoding/json rejects it.
func (d *wireDecoder) float(f *float64) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.literal("null")
	case c == '-' || isDigit(c):
		start := d.pos
		n, err := d.scanNumber()
		if err != nil {
			return err
		}
		v, ok := n.round()
		if !ok {
			if v, err = strconv.ParseFloat(string(d.buf[start:d.pos]), 64); err != nil {
				return &wireError{msg: "number " + string(d.buf[start:d.pos]) + " does not fit a float64", off: start}
			}
		}
		*f = v
		return nil
	}
	return d.mismatch("a number")
}

// boolean decodes true or false into *b; null leaves *b as it was.
func (d *wireDecoder) boolean(b *bool) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case 't':
		*b = true
		return d.literal("true")
	case 'f':
		*b = false
		return d.literal("false")
	}
	return d.mismatch("a boolean")
}

// name decodes a string into *s; null leaves *s as it was.
func (d *wireDecoder) name(s *string) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '"':
		start := d.pos
		plain, _, err := d.str()
		if err != nil {
			return err
		}
		*s, err = d.text(start, d.pos, plain)
		return err
	}
	return d.mismatch("a string")
}

// names decodes an array of strings into values[:*n], writing element i
// over values[i] when the history has one; null resets the slice.
func (d *wireDecoder) names(values *[]string, n *int) error {
	switch d.peek() {
	case 'n':
		*values, *n = (*values)[:0], 0
		return d.literal("null")
	case '[':
	default:
		return d.mismatch("an array of strings")
	}
	if err := d.enter(); err != nil {
		return err
	}
	i := 0
	for more := d.first(']'); more; i++ {
		if i == len(*values) {
			*values = append(*values, "")
		}
		if err := d.name(&(*values)[i]); err != nil {
			return err
		}
		var err error
		if more, err = d.next(']'); err != nil {
			return err
		}
	}
	if i == 0 {
		*values = (*values)[:0]
	}
	*n = i
	return nil
}

// attributes decodes the schema's attribute list.
func (d *wireDecoder) attributes(as *wireAttrs) error {
	switch d.peek() {
	case 'n':
		as.list, as.n = as.list[:0], 0
		return d.literal("null")
	case '[':
	default:
		return d.mismatch("an array of attributes")
	}
	if err := d.enter(); err != nil {
		return err
	}
	i := 0
	for more := d.first(']'); more; i++ {
		if i == len(as.list) {
			as.list = append(as.list, wireAttr{})
		}
		var err error
		switch d.peek() {
		case 'n':
			err = d.literal("null")
		case '{':
			err = d.attribute(&as.list[i])
		default:
			err = d.mismatch("an attribute object")
		}
		if err != nil {
			return err
		}
		if more, err = d.next(']'); err != nil {
			return err
		}
	}
	if i == 0 {
		as.list = as.list[:0]
	}
	as.n = i
	return nil
}

func (d *wireDecoder) attribute(a *wireAttr) error {
	if err := d.enter(); err != nil {
		return err
	}
	for more := d.first('}'); more; {
		k, err := d.key(attributeKeys)
		if err != nil {
			return err
		}
		switch k {
		case 0:
			err = d.name(&a.name)
		case 1:
			err = d.names(&a.values, &a.n)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
		if more, err = d.next('}'); err != nil {
			return err
		}
	}
	return nil
}

// schemaAttributes returns the decoded attribute list.
func (as *wireAttrs) schemaAttributes() []Attribute {
	out := make([]Attribute, as.n)
	for i, a := range as.list[:as.n] {
		out[i] = Attribute{Name: a.name, Values: a.values[:a.n]}
	}
	return out
}

// rows decodes an array of leaf objects (combos false: a null element
// leaves its row as it was) or of combinations (combos true: a delta's
// removes, where a null element resets its combination); null resets the
// array.
func (d *wireDecoder) rows(rs *wireRows, combos bool) error {
	more, err := d.openRows(rs)
	if err != nil || !more {
		return err
	}
	_, err = d.elements(rs, combos, len(d.buf)+1, 0)
	return err
}

// openRows consumes the opening bracket of a rows array and reports
// whether an element follows. null and the empty array reset rs.
func (d *wireDecoder) openRows(rs *wireRows) (bool, error) {
	switch d.peek() {
	case 'n':
		rs.rows, rs.n = rs.rows[:0], 0
		return false, d.literal("null")
	case '[':
	default:
		return false, d.mismatch("an array")
	}
	if err := d.enter(); err != nil {
		return false, err
	}
	if !d.first(']') {
		rs.rows, rs.n = rs.rows[:0], 0
		return false, nil
	}
	rs.n = 0
	return true, nil
}

// elements decodes the elements of an open rows array into rs.rows[rs.n:],
// starting at an element start. It returns once the array has closed
// (closed) or once the next element starts at or past limit, with d.pos at
// that start. A positive sizeTo is where the bytes this call decodes are
// taken to end: once sampleRows rows are in, rs and the code arena are
// sized for the rest (presize).
func (d *wireDecoder) elements(rs *wireRows, combos bool, limit, sizeTo int) (closed bool, err error) {
	from, fromRow, fromCode := d.pos, rs.n, len(d.codes)
	for {
		i := rs.n
		if i == len(rs.rows) {
			if sizeTo > 0 && i-fromRow == sampleRows {
				d.presize(rs, from, fromRow, fromCode, sizeTo)
			}
			rs.rows = append(rs.rows, wireRow{off: len(d.codes)})
		}
		switch c := d.peek(); {
		case combos:
			err = d.combo(&rs.rows[i])
		case c == '{':
			err = d.leaf(&rs.rows[i])
		case c == 'n':
			err = d.literal("null")
		default:
			err = d.mismatch("a leaf object")
		}
		if err != nil {
			return false, err
		}
		rs.n = i + 1
		more, err := d.next(']')
		if err != nil || !more {
			return err == nil, err
		}
		if d.peek(); d.pos >= limit {
			return false, nil
		}
	}
}

// presize grows rs.rows and the code arena, once, to what the bytes up to
// end are estimated to need: the bytes, rows and codes decoded since from,
// fromRow and fromCode give the rates, and a sixteenth is added. Rows
// averaging under minSizedRowBytes are left to append's growth, so a run
// of tiny rows ahead of other bytes cannot make the estimate balloon.
func (d *wireDecoder) presize(rs *wireRows, from, fromRow, fromCode, end int) {
	n, used := rs.n-fromRow, d.pos-from
	if used < n*minSizedRowBytes || end <= d.pos {
		return
	}
	rows := (end - d.pos) * n / used
	rows += rows / 16
	rs.rows = slices.Grow(rs.rows, rows)
	d.codes = slices.Grow(d.codes, rows*(len(d.codes)-fromCode)/n)
}

// leaf decodes one leaf object into r.
func (d *wireDecoder) leaf(r *wireRow) error {
	if err := d.enter(); err != nil {
		return err
	}
	for more := d.first('}'); more; {
		k, err := d.key(leafKeys)
		if err != nil {
			return err
		}
		switch k {
		case 0:
			err = d.combo(r)
		case 1:
			err = d.float(&r.actual)
		case 2:
			err = d.float(&r.forecast)
		case 3:
			err = d.boolean(&r.anomalous)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
		if more, err = d.next('}'); err != nil {
			return err
		}
	}
	return nil
}

// combo decodes an array of element names into r's combination, resolving
// each against the schema as it goes; null resets the combination.
func (d *wireDecoder) combo(r *wireRow) error {
	switch d.peek() {
	case 'n':
		r.n, r.hist = 0, 0
		return d.literal("null")
	case '[':
	default:
		return d.mismatch("an array of element names")
	}
	if err := d.enter(); err != nil {
		return err
	}
	i := 0
	for more := d.first(']'); more; i++ {
		if i == r.hist {
			if r.off+r.hist != len(d.codes) {
				off := len(d.codes)
				d.codes = append(d.codes, d.codes[r.off:r.off+r.hist]...)
				r.off = off
			}
			d.codes = append(d.codes, missingName)
			r.hist++
		}
		var err error
		switch d.peek() {
		case '"':
			d.codes[r.off+i], err = d.element(i)
		case 'n':
			err = d.literal("null")
		default:
			err = d.mismatch("an element name")
		}
		if err != nil {
			return err
		}
		if more, err = d.next(']'); err != nil {
			return err
		}
	}
	if i == 0 {
		r.hist = 0
	}
	r.n = i
	return nil
}

// element consumes a string token and resolves it as an element name of
// attribute a. A name the schema lacks yields a negative placeholder that
// comboOf reports if it is still there when decoding ends.
func (d *wireDecoder) element(a int) (int32, error) {
	start := d.pos
	if a < len(d.last) {
		// The cached name is a plain token's bytes, so the same bytes
		// followed by the closing quote are that token again.
		last := &d.last[a]
		if end := start + 1 + len(last.name); len(last.name) > 0 && end < len(d.buf) && d.buf[end] == '"' &&
			string(d.buf[start+1:end]) == string(last.name) {
			d.pos = end + 1
			return last.code, nil
		}
	}
	plain, _, err := d.str()
	if err != nil || a >= len(d.last) {
		// Past the schema's arity the code is never read: the row fails
		// its length check.
		return 0, err
	}
	codes := d.schema.codes[a]
	if plain {
		content := d.buf[start+1 : d.pos-1]
		last := &d.last[a]
		if code, ok := codes[string(content)]; ok {
			last.name, last.code = content, code
			return code, nil
		}
	} else {
		s, err := d.text(start, d.pos, false)
		if err != nil {
			return 0, err
		}
		if code, ok := codes[s]; ok {
			return code, nil
		}
	}
	d.bad = append(d.bad, start)
	return missingName - int32(len(d.bad)), nil
}

// comboOf returns row r's combination carved from the code arena, or the
// error name resolution left on it.
func (d *wireDecoder) comboOf(r *wireRow) (Combination, error) {
	n := d.schema.NumAttributes()
	if r.n != n {
		return nil, fmt.Errorf("combination has %d elements, schema has %d attributes", r.n, n)
	}
	c := Combination(d.codes[r.off : r.off+n : r.off+n])
	for a, code := range c {
		if code < 0 {
			return nil, fmt.Errorf("attribute %q has no element %q", d.schema.Attribute(a).Name, d.unresolved(code))
		}
	}
	return c, nil
}

// unresolved returns the element name behind a placeholder code.
func (d *wireDecoder) unresolved(code int32) string {
	if code == missingName {
		return ""
	}
	start := d.bad[missingName-1-code]
	d.pos = start
	plain, _, _ := d.str()
	s, _ := d.text(start, d.pos, plain)
	return s
}

// wirePart is one stretch of a split leaves (or updates) array: its own
// decoder (code arena, bad list and name cache; the buffer and schema are
// shared) and the rows it decoded, from element start start until the
// array closed, an error, or an element start at or past limit.
type wirePart struct {
	d            *wireDecoder
	rows         *wireRows
	start, limit int
	closed       bool
	err          error
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// splitOffsets is where ReadJSON splits a leaves array, and ReadDeltaJSON
// an updates array, whose first element starts at first in a document of
// end bytes: evenly, into min(GOMAXPROCS, bytes/minPartBytes) parts, or not
// at all below two.
func splitOffsets(first, end int) []int {
	w := min(runtime.GOMAXPROCS(0), (end-first)/minPartBytes)
	if w < 2 {
		return nil
	}
	offs := make([]int, w-1)
	for k := range offs {
		offs[k] = first + (k+1)*(end-first)/w
	}
	return offs
}

// candidates snaps each split offset to a candidate element start: the
// first '{' at or after it whose previous non-whitespace byte is ','. A
// candidate may be wrong — the bytes ",{" can sit inside a string or a
// nested value — which splitLeaves detects. Candidates increase strictly
// and lie past first, the array's first element; an offset with no
// candidate left in buf ends the list. Each byte is looked at once.
func candidates(buf []byte, first int, offs []int) []int {
	var cuts []int
	from := first + 1
	for _, off := range offs {
		i := max(off, from)
		if i >= len(buf) {
			break
		}
		// buf[from-1] is the previous candidate or the first element's
		// first byte, so the look back stops there at the latest.
		prev := byte(0)
		for j := i - 1; j >= from-1; j-- {
			if !isSpace(buf[j]) {
				prev = buf[j]
				break
			}
		}
		for ; i < len(buf); i++ {
			c := buf[i]
			if c == '{' && prev == ',' {
				break
			}
			if !isSpace(c) {
				prev = c
			}
		}
		if i >= len(buf) {
			break
		}
		cuts = append(cuts, i)
		from = i + 1
	}
	return cuts
}

// splitLeaves decodes the first leaves member, which is decoded in place,
// or a delta's first updates member into rs: a long array in parts, one per
// candidate from split, on their own goroutines, any other serially. Part k
// is accepted only if part k-1 ended without an error, did not close the
// array and stopped exactly at part k's start: then that start is a true
// element start, where the decoder's state is fixed by the bytes before it
// (the nesting depth, the schema, an empty row — the name cache never
// changes a result), so part k decoded what the serial scan would have.
// From the first boundary that fails, the last accepted part decodes on
// serially. It returns the accepted parts after the first, whose rows
// follow rs's in document order, leaving d where the serial scan would be:
// past the array, or at its first error.
func (d *wireDecoder) splitLeaves(rs *wireRows, split func(first, end int) []int) ([]wirePart, error) {
	more, err := d.openRows(rs)
	if err != nil || !more {
		return nil, err
	}
	end := len(d.buf)
	cuts := candidates(d.buf, d.pos, split(d.pos, end))
	if len(cuts) == 0 {
		_, err = d.elements(rs, false, end+1, end)
		return nil, err
	}
	parts := make([]wirePart, len(cuts)+1)
	for k := range parts {
		p := &parts[k]
		p.limit = end + 1
		if k < len(cuts) {
			p.limit = cuts[k]
		}
		if k == 0 {
			p.d, p.rows, p.start = d, rs, d.pos
			continue
		}
		p.start = cuts[k-1]
		p.d = &wireDecoder{buf: d.buf, pos: p.start, depth: d.depth}
		p.d.useSchema(d.schema)
		p.rows = &wireRows{}
	}
	RunWorkers(len(parts), func(k int) {
		p := &parts[k]
		p.closed, p.err = p.d.elements(p.rows, false, p.limit, min(p.limit, end))
	})
	k := 0
	for k+1 < len(parts) && parts[k].err == nil && !parts[k].closed && parts[k].d.pos == parts[k+1].start {
		k++
	}
	last := &parts[k]
	if last.err == nil && !last.closed {
		_, last.err = last.d.elements(last.rows, false, end+1, 0)
	}
	d.pos, d.depth = last.d.pos, last.d.depth
	return parts[1 : k+1], last.err
}

// fold appends the rows of parts to rs, moving their codes into d's arena
// and the placeholders of their unresolved names onto d's bad list, so
// that a repeated leaves member decodes into one history.
func (d *wireDecoder) fold(rs *wireRows, parts []wirePart) {
	for _, p := range parts {
		base, bad := len(d.codes), int32(len(d.bad))
		for _, c := range p.d.codes {
			if c < missingName {
				c -= bad
			}
			d.codes = append(d.codes, c)
		}
		d.bad = append(d.bad, p.d.bad...)
		rs.rows = rs.rows[:rs.n]
		for _, r := range p.rows.rows[:p.rows.n] {
			r.off += base
			rs.rows = append(rs.rows, r)
		}
		rs.n = len(rs.rows)
	}
}

// splitRows is a decoded rows array whose first member may have been
// split: rows holds the first part's rows and, once folded, every later
// member's; parts holds the first member's other parts, whose rows follow
// rows' in document order, each with the decoder holding its codes.
type splitRows struct {
	rows  wireRows
	parts []wirePart
	// kept is how many parts the first member was decoded in.
	kept int
}

// member decodes a leaves or updates member into s: the first one through
// splitLeaves, a later one serially, after folding the parts into s.rows
// so that every member decodes into one history as the serial scan's do.
func (d *wireDecoder) member(s *splitRows, first bool, split func(first, end int) []int) error {
	if first {
		var err error
		s.parts, err = d.splitLeaves(&s.rows, split)
		s.kept = 1 + len(s.parts)
		return err
	}
	d.fold(&s.rows, s.parts)
	s.parts = nil
	return d.rows(&s.rows, false)
}

// len is how many rows s holds.
func (s *splitRows) len() int {
	n := s.rows.n
	for _, p := range s.parts {
		n += p.rows.n
	}
	return n
}

// each resolves the rows of s in document order, d resolving s.rows, and
// hands each to f. A row that does not resolve stops it with an error
// naming the row as noun and its index in the whole array.
func (s *splitRows) each(d *wireDecoder, noun string, f func(c Combination, r *wireRow)) error {
	i := 0
	visit := func(d *wireDecoder, rs *wireRows) error {
		for k := range rs.rows[:rs.n] {
			r := &rs.rows[k]
			c, err := d.comboOf(r)
			if err != nil {
				return fmt.Errorf("%s %d: %w", noun, i, err)
			}
			f(c, r)
			i++
		}
		return nil
	}
	if err := visit(d, &s.rows); err != nil {
		return err
	}
	for _, p := range s.parts {
		if err := visit(p.d, p.rows); err != nil {
			return err
		}
	}
	return nil
}

// decodeSnapshotSplit decodes a snapshot document, splitting the first
// leaves array near the offsets split returns for it (given the offset of
// its first element and the document's length), and reports how many
// parts were kept. The schema comes from "attributes", which may follow
// "leaves": each leaves value's offset is recorded, and if it came before
// the final attribute list it is decoded again, serially, once that list
// is known. Only the first leaves member decoded in place is split; a
// later one folds the parts into one history first (member).
func decodeSnapshotSplit(buf []byte, split func(first, end int) []int) (*Snapshot, int, error) {
	d := &wireDecoder{buf: buf}
	var (
		attrs  wireAttrs
		leaves = splitRows{kept: 1}
		starts []int
		// attrKeys counts the attributes members so far, firstKeys its
		// value at the first leaves member.
		attrKeys, firstKeys = 0, -1
		schema              *Schema
		schemaErr           error
		schemaKeys          = -1
	)
	build := func() (*Schema, error) {
		if schemaKeys != attrKeys {
			schema, schemaErr = NewSchema(attrs.schemaAttributes()...)
			schemaKeys = attrKeys
		}
		return schema, schemaErr
	}
	fail := func(err error) (*Snapshot, int, error) {
		return nil, leaves.kept, fmt.Errorf("kpi: read json: %w", err)
	}

	switch d.peek() {
	case '{':
	case 'n':
		if err := d.literal("null"); err != nil {
			return fail(err)
		}
		_, err := build()
		return fail(err)
	default:
		return fail(d.mismatch("a snapshot object"))
	}
	if err := d.enter(); err != nil {
		return fail(err)
	}
	for more := d.first('}'); more; {
		k, err := d.key(snapshotKeys)
		if err != nil {
			return fail(err)
		}
		switch k {
		case 0:
			err = d.attributes(&attrs)
			attrKeys++
		case 1:
			starts = append(starts, d.pos)
			if len(starts) == 1 {
				firstKeys = attrKeys
			}
			// Decode in place while the schema is valid and has not changed
			// since the first leaves member; otherwise the members are
			// decoded again at the end anyway.
			if s, serr := build(); serr == nil && firstKeys == attrKeys {
				if d.schema != s {
					d.useSchema(s)
				}
				err = d.member(&leaves, len(starts) == 1, split)
			} else {
				err = d.skip()
			}
		default:
			err = d.skip()
		}
		if err != nil {
			return fail(err)
		}
		if more, err = d.next('}'); err != nil {
			return fail(err)
		}
	}
	s, err := build()
	if err != nil {
		return fail(err)
	}
	if len(starts) > 0 && firstKeys != attrKeys {
		leaves, d.codes, d.bad = splitRows{kept: 1}, d.codes[:0], d.bad[:0]
		d.useSchema(s)
		for _, at := range starts {
			d.pos, d.depth = at, 1
			if err := d.rows(&leaves.rows, false); err != nil {
				return fail(err)
			}
		}
	}
	out := make([]Leaf, 0, leaves.len())
	if err := leaves.each(d, "leaf", func(c Combination, r *wireRow) {
		out = append(out, Leaf{Combo: c, Actual: r.actual, Forecast: r.forecast, Anomalous: r.anomalous})
	}); err != nil {
		return fail(err)
	}
	snap, err := NewSnapshot(s, out)
	return snap, leaves.kept, err
}

// decodeDeltaSplit decodes a delta document against schema, splitting the
// first updates array near the offsets split returns for it, as
// decodeSnapshotSplit splits a snapshot's leaves, and reports how many
// parts were kept. A later updates member folds the parts into one history
// first (member); removes and adds are decoded serially. Update errors
// name the update's index in the whole array.
func decodeDeltaSplit(buf []byte, schema *Schema, split func(first, end int) []int) (Delta, int, error) {
	d := &wireDecoder{buf: buf}
	d.useSchema(schema)
	var (
		removes, adds splitRows
		updates       = splitRows{kept: 1}
		seenUpdates   bool
	)
	fail := func(err error) (Delta, int, error) {
		return Delta{}, updates.kept, fmt.Errorf("kpi: read delta json: %w", err)
	}
	switch d.peek() {
	case '{':
	case 'n':
		if err := d.literal("null"); err != nil {
			return fail(err)
		}
		return Delta{}, updates.kept, nil
	default:
		return fail(d.mismatch("a delta object"))
	}
	if err := d.enter(); err != nil {
		return fail(err)
	}
	for more := d.first('}'); more; {
		k, err := d.key(deltaKeys)
		if err != nil {
			return fail(err)
		}
		switch k {
		case 0:
			err = d.rows(&removes.rows, true)
		case 1:
			err = d.member(&updates, !seenUpdates, split)
			seenUpdates = true
		case 2:
			err = d.rows(&adds.rows, false)
		default:
			err = d.skip()
		}
		if err != nil {
			return fail(err)
		}
		if more, err = d.next('}'); err != nil {
			return fail(err)
		}
	}
	var out Delta
	if n := removes.len(); n > 0 {
		out.Removes = make([]Combination, 0, n)
	}
	if err := removes.each(d, "remove", func(c Combination, _ *wireRow) {
		out.Removes = append(out.Removes, c)
	}); err != nil {
		return fail(err)
	}
	if n := updates.len(); n > 0 {
		out.Updates = make([]LeafUpdate, 0, n)
	}
	if err := updates.each(d, "update", func(c Combination, r *wireRow) {
		out.Updates = append(out.Updates, LeafUpdate{Combo: c, Actual: r.actual, Forecast: r.forecast})
	}); err != nil {
		return fail(err)
	}
	if n := adds.len(); n > 0 {
		out.Adds = make([]Leaf, 0, n)
	}
	if err := adds.each(d, "add", func(c Combination, r *wireRow) {
		out.Adds = append(out.Adds, Leaf{Combo: c, Actual: r.actual, Forecast: r.forecast, Anomalous: r.anomalous})
	}); err != nil {
		return fail(err)
	}
	return out, updates.kept, nil
}
