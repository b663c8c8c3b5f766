package kpi

import (
	"encoding/json"
	"fmt"
	"io"
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

// missingName is the placeholder code of a combination slot no string was
// ever decoded into (a null element past the slot's history): the empty
// name, which no schema has. Element names a schema lacks get the codes
// below it, one per token, so the row check can report them by name.
const missingName int32 = -2

// readDocument reads r to EOF into a buffer of its own. The buffer is not
// pooled: a pool would pin request-sized buffers between requests (and a
// 115k-leaf baseline's between ticks), raising peak memory for little gain.
// A read error is reported only when the document's first JSON value is
// incomplete without the unread bytes: json.Decoder likewise stops reading
// once that value is complete.
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

// number consumes a number token, validating it against the JSON grammar.
func (d *wireDecoder) number() error {
	b, i := d.buf, d.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && isDigit(b[i]):
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	default:
		d.pos = i
		return d.mismatch("a digit")
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || !isDigit(b[i]) {
			d.pos = i
			return d.mismatch("a digit after the decimal point")
		}
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			d.pos = i
			return d.mismatch("a digit in the exponent")
		}
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	}
	d.pos = i
	return nil
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
			if err := d.number(); err != nil {
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
		if err := d.number(); err != nil {
			return err
		}
		v, err := strconv.ParseFloat(string(d.buf[start:d.pos]), 64)
		if err != nil {
			return &wireError{msg: "number " + string(d.buf[start:d.pos]) + " does not fit a float64", off: start}
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
	switch d.peek() {
	case 'n':
		rs.rows, rs.n = rs.rows[:0], 0
		return d.literal("null")
	case '[':
	default:
		return d.mismatch("an array")
	}
	if err := d.enter(); err != nil {
		return err
	}
	i := 0
	for more := d.first(']'); more; i++ {
		if i == len(rs.rows) {
			rs.rows = append(rs.rows, wireRow{off: len(d.codes)})
		}
		var err error
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
			return err
		}
		if more, err = d.next(']'); err != nil {
			return err
		}
	}
	if i == 0 {
		rs.rows = rs.rows[:0]
	}
	rs.n = i
	return nil
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
		if len(last.name) > 0 && string(last.name) == string(content) {
			return last.code, nil
		}
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

// decodeSnapshot decodes a snapshot document. The schema comes from
// "attributes", which may follow "leaves": each leaves value's offset is
// recorded, and if it came before the final attribute list it is decoded
// again once that list is known.
func decodeSnapshot(buf []byte) (*Snapshot, error) {
	d := &wireDecoder{buf: buf}
	var (
		attrs  wireAttrs
		leaves wireRows
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
	fail := func(err error) (*Snapshot, error) { return nil, fmt.Errorf("kpi: read json: %w", err) }

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
				err = d.rows(&leaves, false)
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
		leaves, d.codes, d.bad = wireRows{}, d.codes[:0], d.bad[:0]
		d.useSchema(s)
		for _, at := range starts {
			d.pos, d.depth = at, 1
			if err := d.rows(&leaves, false); err != nil {
				return fail(err)
			}
		}
	}
	out := make([]Leaf, leaves.n)
	for i := range out {
		r := &leaves.rows[i]
		c, err := d.comboOf(r)
		if err != nil {
			return fail(fmt.Errorf("leaf %d: %w", i, err))
		}
		out[i] = Leaf{Combo: c, Actual: r.actual, Forecast: r.forecast, Anomalous: r.anomalous}
	}
	return NewSnapshot(s, out)
}

// decodeDelta decodes a delta document against schema.
func decodeDelta(buf []byte, schema *Schema) (Delta, error) {
	d := &wireDecoder{buf: buf}
	d.useSchema(schema)
	fail := func(err error) (Delta, error) { return Delta{}, fmt.Errorf("kpi: read delta json: %w", err) }
	switch d.peek() {
	case '{':
	case 'n':
		if err := d.literal("null"); err != nil {
			return fail(err)
		}
		return Delta{}, nil
	default:
		return fail(d.mismatch("a delta object"))
	}
	if err := d.enter(); err != nil {
		return fail(err)
	}
	var removes, updates, adds wireRows
	for more := d.first('}'); more; {
		k, err := d.key(deltaKeys)
		if err != nil {
			return fail(err)
		}
		switch k {
		case 0:
			err = d.rows(&removes, true)
		case 1:
			err = d.rows(&updates, false)
		case 2:
			err = d.rows(&adds, false)
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
	if removes.n > 0 {
		out.Removes = make([]Combination, removes.n)
	}
	for i := range out.Removes {
		c, err := d.comboOf(&removes.rows[i])
		if err != nil {
			return fail(fmt.Errorf("remove %d: %w", i, err))
		}
		out.Removes[i] = c
	}
	if updates.n > 0 {
		out.Updates = make([]LeafUpdate, updates.n)
	}
	for i := range out.Updates {
		r := &updates.rows[i]
		c, err := d.comboOf(r)
		if err != nil {
			return fail(fmt.Errorf("update %d: %w", i, err))
		}
		out.Updates[i] = LeafUpdate{Combo: c, Actual: r.actual, Forecast: r.forecast}
	}
	if adds.n > 0 {
		out.Adds = make([]Leaf, adds.n)
	}
	for i := range out.Adds {
		r := &adds.rows[i]
		c, err := d.comboOf(r)
		if err != nil {
			return fail(fmt.Errorf("add %d: %w", i, err))
		}
		out.Adds[i] = Leaf{Combo: c, Actual: r.actual, Forecast: r.forecast, Anomalous: r.anomalous}
	}
	return out, nil
}
