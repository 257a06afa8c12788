// Package validate is the one config-validation layer of the repo.  Each
// numeric config field declares the values it accepts in a `domain` struct
// tag: one or more alternatives joined by "|", each an interval "[a,b]"
// (either end may be open), a half-line ">=a" or ">a", or one value, a
// sentinel such as -1.  NaN and ±Inf lie outside every domain, and a tag on
// a slice or map field applies to each element.  `domain:"-"` on a struct
// field leaves it to the constructor that owns it.  Struct checks every leaf
// against its domain; checks across fields stay code and report through
// Fieldf.  Both name the package and the offending field in one
// "pkg: Field detail" shape, so tests assert on stable substrings and a
// rejection reads the same whichever layer made it.
package validate

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
)

// Fieldf builds a named-field config error: "<pkg>: <field> <detail>", with
// detail formatted from format/args.  The field is a config field name or a
// dotted/indexed path into one ("Faults[2]", "GSLB.RTT[web]").
func Fieldf(pkg, field, format string, args ...any) error {
	return fmt.Errorf("%s: %s %s", pkg, field, fmt.Sprintf(format, args...))
}

// Struct checks every numeric leaf of v, a struct or a pointer to one,
// against its field's domain, through nested structs, slices, arrays and
// maps; an embedded struct's fields take no prefix, as in JSON.  It returns
// the first leaf outside its domain (map entries in key order) as
// "<pkg>: <path> must be <domain>, got <value>", for example
// "acm: Regions[0].Clients must be >= 0, got -1".  A numeric field without a
// tag, or with a malformed one, is an error naming the field.
func Struct(pkg string, v any) error {
	rv := reflect.Indirect(reflect.ValueOf(v))
	n, ok := plans.Load(rv.Type())
	if !ok {
		built, err := build(rv.Type(), nil, "")
		if err != nil {
			return fmt.Errorf("%s: %w", pkg, err)
		}
		n, _ = plans.LoadOrStore(rv.Type(), built)
	}
	if f := n.(*node).check(rv); f != nil {
		return Fieldf(pkg, strings.TrimPrefix(f.path, "."), "must be %s, got %v", f.dom.text, f.value)
	}
	return nil
}

// plans caches each type's checking tree, so the success path of Struct
// parses no tag and formats no path.
var plans sync.Map // reflect.Type -> *node

// node checks one value: a numeric leaf against dom, a struct by its
// fields, a slice, array or map by elem.  A nil node holds no numeric leaf.
type node struct {
	dom    *domain
	fields []field
	elem   *node
}

type field struct {
	index int
	seg   string // ".Name", or "" for an embedded struct
	node  *node
}

// build returns the checking tree of type t, whose numeric leaves take dom;
// where names the field holding t.
func build(t reflect.Type, dom *domain, where string) (*node, error) {
	switch t.Kind() {
	case reflect.Struct:
		n := &node{}
		for i := 0; i < t.NumField(); i++ {
			sf := t.Field(i)
			tag, tagged := sf.Tag.Lookup("domain")
			if !sf.IsExported() || tag == "-" {
				continue
			}
			where := t.String() + "." + sf.Name
			var d *domain
			var err error
			if tagged {
				if d, err = parseDomain(tag); err != nil {
					return nil, fmt.Errorf("%s: %w", where, err)
				}
			}
			child, err := build(sf.Type, d, where)
			switch {
			case err != nil:
				return nil, err
			case child == nil && d != nil:
				return nil, fmt.Errorf("%s: domain tag on a field with no number", where)
			case child != nil:
				seg := "." + sf.Name
				if sf.Anonymous {
					seg = ""
				}
				n.fields = append(n.fields, field{i, seg, child})
			}
		}
		if len(n.fields) == 0 {
			return nil, nil
		}
		return n, nil
	case reflect.Slice, reflect.Array, reflect.Map:
		elem, err := build(t.Elem(), dom, where)
		if elem == nil {
			return nil, err
		}
		return &node{elem: elem}, nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Uint, reflect.Uint8,
		reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Float32, reflect.Float64:
		if dom == nil {
			return nil, fmt.Errorf("%s has no domain tag", where)
		}
		return &node{dom: dom}, nil
	}
	return nil, nil
}

// failure is an out-of-domain leaf; path grows as the walk unwinds.
type failure struct {
	path  string
	dom   *domain
	value any
}

func (n *node) check(v reflect.Value) *failure {
	if n == nil {
		return nil
	}
	switch v.Kind() {
	case reflect.Struct:
		for _, f := range n.fields {
			if fl := f.node.check(v.Field(f.index)); fl != nil {
				fl.path = f.seg + fl.path
				return fl
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if fl := n.elem.check(v.Index(i)); fl != nil {
				fl.path = "[" + strconv.Itoa(i) + "]" + fl.path
				return fl
			}
		}
	case reflect.Map:
		var first *failure
		for it := v.MapRange(); it.Next(); {
			if fl := n.elem.check(it.Value()); fl != nil {
				if fl.path = "[" + fmt.Sprint(it.Key()) + "]" + fl.path; first == nil || fl.path < first.path {
					first = fl
				}
			}
		}
		return first
	default:
		var x float64
		switch {
		case v.CanInt():
			x = float64(v.Int())
		case v.CanUint():
			x = float64(v.Uint())
		default:
			x = v.Float()
		}
		if !n.dom.admits(x) {
			return &failure{dom: n.dom, value: v.Interface()}
		}
	}
	return nil
}

// domain is a parsed `domain` tag: a union of spans and its rendering for
// the message.
type domain struct {
	spans []span
	text  string
}

// span is an interval; a half-line has hi = +Inf and a sentinel lo = hi.
type span struct {
	lo, hi         float64
	loOpen, hiOpen bool
}

func (d *domain) admits(x float64) bool {
	for _, s := range d.spans {
		if (x > s.lo || x == s.lo && !s.loOpen) && (x < s.hi || x == s.hi && !s.hiOpen) && !math.IsInf(x, 0) {
			return true
		}
	}
	return false
}

// render spells a tag for the message: ">=0|-1" reads ">= 0 or -1" and
// "[0,1)" reads "in [0, 1)".
var render = strings.NewReplacer(">=", ">= ", ">", "> ", "[", "in [", "(", "in (", ",", ", ", "|", " or ")

func parseDomain(tag string) (*domain, error) {
	d := &domain{text: render.Replace(tag)}
	for _, alt := range strings.Split(tag, "|") {
		s := span{hi: math.Inf(1)}
		var err error
		switch {
		case strings.HasPrefix(alt, ">="):
			s.lo, err = strconv.ParseFloat(alt[2:], 64)
		case strings.HasPrefix(alt, ">"):
			s.lo, err = strconv.ParseFloat(alt[1:], 64)
			s.loOpen = true
		case strings.HasPrefix(alt, "[") || strings.HasPrefix(alt, "("):
			var open, end rune
			if _, err = fmt.Sscanf(alt, "%c%g,%g%c", &open, &s.lo, &s.hi, &end); err == nil && !strings.Contains("])", alt[len(alt)-1:]) {
				err = fmt.Errorf("interval %q is not closed", alt)
			}
			s.loOpen, s.hiOpen = open == '(', end == ')'
		default:
			s.lo, err = strconv.ParseFloat(alt, 64)
			s.hi = s.lo
		}
		if err == nil && !(s.lo <= s.hi) {
			err = fmt.Errorf("%q is empty", alt)
		}
		if err != nil {
			return nil, fmt.Errorf("domain tag %q: %w", tag, err)
		}
		d.spans = append(d.spans, s)
	}
	return d, nil
}
