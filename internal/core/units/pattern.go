// Package units implements the Wintermute Unit System (paper §III): the
// logical abstractions that bind analysis computations to nodes of the
// sensor tree.
//
// A unit is an atomic component to which an operator's computation is
// bound: it names a node in the sensor tree and carries a set of input and
// output sensors. A pattern unit describes units generically, through
// pattern expressions such as
//
//	<topdown+1>power
//	<bottomup, filter cpu>cpu-cycles
//	<bottomup-1>healthy
//
// where the anchor keyword drives vertical navigation (tree level) and the
// optional filter regular expression drives horizontal navigation within
// that level. Instantiating a pattern unit against a sensor tree produces
// one concrete unit per node in the domain of the output expression, each
// with its own fully-resolved sensors — allowing thousands of independent
// per-component models to be configured with a single block.
package units

import (
	"errors"
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"github.com/dcdb/wintermute/internal/navigator"
	"github.com/dcdb/wintermute/internal/sensor"
)

// Anchor selects the vertical navigation mode of a pattern expression.
type Anchor int

const (
	// AnchorSame binds the sensor to the unit's own node; used when an
	// expression is a bare sensor name without angle brackets.
	AnchorSame Anchor = iota
	// AnchorTopDown counts levels downward from the highest level of the
	// tree (depth 1; the root is excluded from pattern navigation).
	AnchorTopDown
	// AnchorBottomUp counts levels upward from the deepest level.
	AnchorBottomUp
	// AnchorAbsolute denotes a fixed, fully-qualified sensor topic.
	AnchorAbsolute
)

// String returns the anchor keyword as written in pattern expressions.
func (a Anchor) String() string {
	switch a {
	case AnchorSame:
		return "same"
	case AnchorTopDown:
		return "topdown"
	case AnchorBottomUp:
		return "bottomup"
	case AnchorAbsolute:
		return "absolute"
	}
	return "unknown"
}

// ErrBadPattern reports a syntactically invalid pattern expression.
var ErrBadPattern = errors.New("units: malformed pattern expression")

// ErrUnresolved reports that a pattern could not be bound to any sensor for
// a given unit node — per the paper, such a unit "cannot be built".
var ErrUnresolved = errors.New("units: pattern resolves to no sensor")

// Pattern is one parsed pattern expression: a vertical anchor with offset,
// an optional horizontal filter, and the sensor name (last topic segment).
type Pattern struct {
	Anchor Anchor
	Offset int            // levels below topdown / above bottomup
	Filter *regexp.Regexp // nil when absent
	Name   string         // sensor name; full topic for AnchorAbsolute
	raw    string
}

// String returns the canonical textual form of the pattern.
func (p Pattern) String() string {
	if p.raw != "" {
		return p.raw
	}
	switch p.Anchor {
	case AnchorSame, AnchorAbsolute:
		return p.Name
	}
	var b strings.Builder
	b.WriteByte('<')
	b.WriteString(p.Anchor.String())
	if p.Offset != 0 {
		if p.Anchor == AnchorTopDown {
			b.WriteByte('+')
		} else {
			b.WriteByte('-')
		}
		b.WriteString(strconv.Itoa(p.Offset))
	}
	if p.Filter != nil {
		b.WriteString(", filter ")
		b.WriteString(p.Filter.String())
	}
	b.WriteByte('>')
	b.WriteString(p.Name)
	return b.String()
}

// Parse parses a single pattern expression. Accepted forms:
//
//	name                      same-node sensor
//	/abs/olute/topic          absolute sensor topic
//	<topdown>name             highest tree level
//	<topdown+K>name           K levels below the highest
//	<bottomup>name            deepest tree level
//	<bottomup-K>name          K levels above the deepest
//	<anchor, filter RE>name   any of the above with a horizontal filter
func Parse(expr string) (Pattern, error) {
	s := strings.TrimSpace(expr)
	if s == "" {
		return Pattern{}, fmt.Errorf("%w: empty expression", ErrBadPattern)
	}
	if !strings.HasPrefix(s, "<") {
		if strings.HasPrefix(s, "/") {
			topic := sensor.Clean(s)
			if err := topic.Validate(); err != nil {
				return Pattern{}, fmt.Errorf("%w: bad absolute topic %q", ErrBadPattern, s)
			}
			return Pattern{Anchor: AnchorAbsolute, Name: string(topic), raw: s}, nil
		}
		if strings.ContainsAny(s, "<>,") {
			return Pattern{}, fmt.Errorf("%w: %q", ErrBadPattern, expr)
		}
		return Pattern{Anchor: AnchorSame, Name: s, raw: s}, nil
	}
	end := strings.IndexByte(s, '>')
	if end < 0 {
		return Pattern{}, fmt.Errorf("%w: missing '>' in %q", ErrBadPattern, expr)
	}
	name := strings.TrimSpace(s[end+1:])
	if name == "" || strings.Contains(name, "/") {
		return Pattern{}, fmt.Errorf("%w: bad sensor name in %q", ErrBadPattern, expr)
	}
	p := Pattern{Name: name, raw: s}
	inner := s[1:end]
	parts := strings.SplitN(inner, ",", 2)
	if err := p.parseSelector(strings.TrimSpace(parts[0])); err != nil {
		return Pattern{}, fmt.Errorf("%w: %v in %q", ErrBadPattern, err, expr)
	}
	if len(parts) == 2 {
		if err := p.parseFilter(strings.TrimSpace(parts[1])); err != nil {
			return Pattern{}, fmt.Errorf("%w: %v in %q", ErrBadPattern, err, expr)
		}
	}
	return p, nil
}

func (p *Pattern) parseSelector(sel string) error {
	switch {
	case sel == "topdown":
		p.Anchor = AnchorTopDown
	case sel == "bottomup":
		p.Anchor = AnchorBottomUp
	case strings.HasPrefix(sel, "topdown+"):
		p.Anchor = AnchorTopDown
		k, err := strconv.Atoi(sel[len("topdown+"):])
		if err != nil || k < 0 {
			return fmt.Errorf("bad topdown offset %q", sel)
		}
		p.Offset = k
	case strings.HasPrefix(sel, "bottomup-"):
		p.Anchor = AnchorBottomUp
		k, err := strconv.Atoi(sel[len("bottomup-"):])
		if err != nil || k < 0 {
			return fmt.Errorf("bad bottomup offset %q", sel)
		}
		p.Offset = k
	default:
		return fmt.Errorf("unknown selector %q", sel)
	}
	return nil
}

func (p *Pattern) parseFilter(f string) error {
	const kw = "filter"
	if !strings.HasPrefix(f, kw) {
		return fmt.Errorf("expected 'filter', got %q", f)
	}
	src := strings.TrimSpace(f[len(kw):])
	if src == "" {
		return errors.New("empty filter expression")
	}
	re, err := regexp.Compile(src)
	if err != nil {
		return fmt.Errorf("bad filter regexp: %v", err)
	}
	p.Filter = re
	return nil
}

// ParseAll parses a list of pattern expressions.
func ParseAll(exprs []string) ([]Pattern, error) {
	out := make([]Pattern, 0, len(exprs))
	for _, e := range exprs {
		p, err := Parse(e)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// Depth converts the pattern's vertical selector into a concrete tree
// depth for the given navigator. It returns ok=false for anchors that do
// not denote a tree level (same-node and absolute patterns).
func (p Pattern) Depth(nv *navigator.Navigator) (depth int, ok bool) {
	switch p.Anchor {
	case AnchorTopDown:
		return nv.Level(true, p.Offset), true
	case AnchorBottomUp:
		return nv.Level(false, p.Offset), true
	default:
		return 0, false
	}
}

// Domain returns the set of tree nodes the pattern matches, before any
// hierarchical binding to a unit: the nodes at the pattern's level whose
// name passes the filter. Same-node patterns have no free domain and
// return nil; absolute patterns return the node owning the fixed topic.
func (p Pattern) Domain(nv *navigator.Navigator) []*navigator.Node {
	switch p.Anchor {
	case AnchorAbsolute:
		n, ok := nv.Resolve(sensor.Topic(p.Name).Node())
		if !ok {
			return nil
		}
		return []*navigator.Node{n}
	case AnchorSame:
		return nil
	}
	depth, _ := p.Depth(nv)
	if depth < 1 || depth > nv.MaxDepth() {
		return nil
	}
	return nv.NodesAtDepthFiltered(depth, p.Filter)
}

// resolveFor binds the pattern to concrete sensor topics for a unit rooted
// at unitNode. When requireExisting is true (inputs), only sensors present
// in the tree are returned and an empty result is an ErrUnresolved error;
// when false (outputs), topics are constructed for every matching node,
// since output sensors are created by the operator itself.
func (p Pattern) resolveFor(nv *navigator.Navigator, unitNode *navigator.Node, requireExisting bool) ([]sensor.Topic, error) {
	switch p.Anchor {
	case AnchorSame:
		topic := unitNode.Path().Join(p.Name)
		if requireExisting && !nv.HasSensor(topic) {
			return nil, fmt.Errorf("%w: %q at %q", ErrUnresolved, p.Name, unitNode.Path())
		}
		return []sensor.Topic{topic}, nil
	case AnchorAbsolute:
		topic := sensor.Topic(p.Name)
		if requireExisting && !nv.HasSensor(topic) {
			return nil, fmt.Errorf("%w: absolute topic %q", ErrUnresolved, p.Name)
		}
		return []sensor.Topic{topic}, nil
	}
	depth, _ := p.Depth(nv)
	if depth < 1 || depth > nv.MaxDepth() {
		return nil, fmt.Errorf("%w: %q denotes no tree level", ErrUnresolved, p.String())
	}
	var out []sensor.Topic
	// Hierarchical binding walks the tree from the unit node — the single
	// ancestor above it or its descendants below — rather than scanning
	// the whole level, keeping large-scale instantiation linear in the
	// number of resolved sensors.
	for _, n := range nv.RelatedAtDepth(unitNode, depth, p.Filter) {
		topic := n.Path().Join(p.Name)
		if requireExisting && !nv.HasSensor(topic) {
			continue
		}
		out = append(out, topic)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: %q for unit %q", ErrUnresolved, p.String(), unitNode.Path())
	}
	return out, nil
}
