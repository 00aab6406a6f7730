// Package tdg implements the Transformation Dependency Graph of
// §III.D: nodes are online accounts carrying a credential-factor
// attribute (CFA — their authentication paths) and a personal-
// information attribute (PIA — what they expose after login); a
// directed edge records that one account's exposed information
// supplies credential factors of another. Edges are classified as in
// the paper: a *full capacity parent* alone (plus the attacker
// profile) satisfies a complete authentication path of its child
// (strong-directivity edge); *half capacity parents* contribute only
// part of a path; *couple nodes* are minimal groups of half-capacity
// parents that jointly complete one (weak-directivity edges, recorded
// in the Couple File).
package tdg

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/mask"
)

// Node is one account in the graph.
type Node struct {
	ID ecosys.AccountID
	// Domain is the service category (used for reporting).
	Domain ecosys.Domain
	// Paths is the CFA: every authentication path of the account.
	Paths []ecosys.AuthPath
	// Exposes is the PIA: fields visible after login.
	Exposes ecosys.InfoSet
	// BoundTo names services whose authenticated session unlocks this
	// account without further credentials (SSO binding).
	BoundTo []string
	// EmailProvider names the service hosting the account's mailbox;
	// controlling it supplies this account's EMC/EML factors.
	EmailProvider string
}

// EdgeKind classifies directivity per Definitions 1–3.
type EdgeKind int

const (
	// EdgeStrong is a strong-directivity edge: the parent alone
	// completes a path of the child.
	EdgeStrong EdgeKind = iota + 1
	// EdgeWeak is a weak-directivity edge: the parent is a member of
	// a couple group that jointly completes a path.
	EdgeWeak
)

// String names the kind.
func (k EdgeKind) String() string {
	switch k {
	case EdgeStrong:
		return "strong"
	case EdgeWeak:
		return "weak"
	}
	return "edge(?)"
}

// Edge is a directed dependency: From's exposed information feeds a
// path of To.
type Edge struct {
	From ecosys.AccountID
	To   ecosys.AccountID
	Kind EdgeKind
	// PathID names the To-side path the edge helps satisfy.
	PathID string
	// Provides lists the factors From contributes to that path.
	Provides []ecosys.FactorKind
}

// CoupleGroup is one Couple File (CouF) entry: the minimal member set
// jointly provides every extra factor of Target's path PathID.
type CoupleGroup struct {
	Members []ecosys.AccountID
	Target  ecosys.AccountID
	PathID  string
}

// Option configures Build.
type Option func(*buildOptions)

type buildOptions struct {
	maxCoupleSize int
}

// WithMaxCoupleSize bounds couple enumeration (default 2, the paper's
// "u, w" pairs; 3 explores triples). Couples shape only the weak
// edges, the DOT rendering and the reported edge counts: attack plans
// and depths read the chain-reaction closure, which no couple bound
// limits.
func WithMaxCoupleSize(k int) Option {
	return func(o *buildOptions) { o.maxCoupleSize = k }
}

// maxCouplesPerPath caps recorded couples per (target, path) to keep
// dense graphs tractable; like the couple size, it shapes only the weak
// edges.
const maxCouplesPerPath = 64

// Graph is an immutable built TDG.
type Graph struct {
	nodes   map[ecosys.AccountID]*Node
	order   []ecosys.AccountID
	ap      ecosys.AttackerProfile
	strong  []Edge
	weak    []Edge
	couples []CoupleGroup
	fringe  map[ecosys.AccountID]bool
	// factors holds, in node order, the mask (bit f for factor f) of
	// the credential factors each node's exposed information supplies.
	factors []uint64
}

// maskableFieldLens gives the canonical value lengths used for the
// combining-coverage analysis (18-digit citizen IDs, 16-digit PANs).
var maskableFieldLens = map[ecosys.InfoField]int{
	ecosys.InfoCitizenID: 18,
	ecosys.InfoBankcard:  16,
}

// NodesFromCatalog extracts graph nodes for the given platforms (both
// when none specified).
//
// Masked sensitive fields are treated with combining-attack semantics
// (§IV.B.2): a masked exposure supplies its credential factor only if
// the catalog's mask windows for that field jointly reveal every
// position — the condition under which an attacker who visits enough
// services reconstructs the full value. Under a unified masking
// standard the union collapses to a single window and masked exposures
// stop feeding the graph; unmasked exposures always count.
func NodesFromCatalog(cat *ecosys.Catalog, platforms ...ecosys.Platform) []Node {
	if len(platforms) == 0 {
		platforms = ecosys.AllPlatforms()
	}
	want := make(map[ecosys.Platform]bool, len(platforms))
	for _, p := range platforms {
		want[p] = true
	}
	combinable := combinableFields(cat)
	var out []Node
	for _, svc := range cat.Services() {
		for i := range svc.Presences {
			pr := &svc.Presences[i]
			if !want[pr.Platform] {
				continue
			}
			exposes := pr.ExposedFields()
			for field, length := range maskableFieldLens {
				e, ok := pr.Exposure(field)
				if !ok {
					continue
				}
				if mask.Revealed(length, e.Mask) >= length {
					continue // fully visible on this service
				}
				if !combinable[field] {
					delete(exposes, field)
				}
			}
			out = append(out, Node{
				ID:            ecosys.AccountID{Service: svc.Name, Platform: pr.Platform},
				Domain:        svc.Domain,
				Paths:         append([]ecosys.AuthPath(nil), pr.Paths...),
				Exposes:       exposes,
				BoundTo:       append([]string(nil), pr.BoundTo...),
				EmailProvider: pr.EmailProvider,
			})
		}
	}
	return out
}

// combinableFields reports, for each maskable field, whether the
// catalog's exposures jointly reveal the whole value (an unmasked
// exposure anywhere, or window union covering every position). The
// whole catalog is consulted regardless of the platform filter: the
// combining attacker visits any service they can compromise.
func combinableFields(cat *ecosys.Catalog) map[ecosys.InfoField]bool {
	out := make(map[ecosys.InfoField]bool, len(maskableFieldLens))
	for field, length := range maskableFieldLens {
		maxPre, maxSuf := 0, 0
		full := false
		for _, svc := range cat.Services() {
			for i := range svc.Presences {
				e, ok := svc.Presences[i].Exposure(field)
				if !ok {
					continue
				}
				if mask.Revealed(length, e.Mask) >= length {
					full = true
					break
				}
				if e.Mask.VisiblePrefix > maxPre {
					maxPre = e.Mask.VisiblePrefix
				}
				if e.Mask.VisibleSuffix > maxSuf {
					maxSuf = e.Mask.VisibleSuffix
				}
			}
			if full {
				break
			}
		}
		out[field] = full || maxPre+maxSuf >= length
	}
	return out
}

// Build constructs the graph for the given nodes under attacker
// profile ap.
func Build(nodes []Node, ap ecosys.AttackerProfile, opts ...Option) (*Graph, error) {
	o := buildOptions{maxCoupleSize: 2}
	for _, opt := range opts {
		opt(&o)
	}
	if o.maxCoupleSize < 2 {
		return nil, fmt.Errorf("tdg: max couple size %d < 2", o.maxCoupleSize)
	}

	g := &Graph{
		nodes:  make(map[ecosys.AccountID]*Node, len(nodes)),
		ap:     ap.Clone(),
		fringe: make(map[ecosys.AccountID]bool),
	}
	for i := range nodes {
		n := nodes[i] // copy
		if _, dup := g.nodes[n.ID]; dup {
			return nil, fmt.Errorf("tdg: duplicate node %s", n.ID)
		}
		g.nodes[n.ID] = &n
		g.order = append(g.order, n.ID)
	}

	apFactors := g.ap.Factors()

	// Per-provider factor masks, computed once.
	for _, id := range g.order {
		var mask uint64
		for f := range g.nodes[id].Exposes.Factors() {
			mask |= 1 << uint(f)
		}
		g.factors = append(g.factors, mask)
	}

	for _, targetID := range g.order {
		target := g.nodes[targetID]
		// Only takeover paths (sign-in and password reset) grow edges.
		for _, path := range takeoverPaths(target.Paths) {
			required := missingFactors(path, apFactors)
			if len(required) == 0 {
				// Satisfiable by the attacker profile alone: a fringe
				// path. No parents needed.
				g.fringe[targetID] = true
				continue
			}
			if hasUnphishable(required) {
				// No amount of harvested information supplies
				// biometrics or U2F; the path grows no edges.
				continue
			}

			// Classify every other node against this path.
			type halfParent struct {
				id       ecosys.AccountID
				provides []ecosys.FactorKind
			}
			var halves []halfParent
			for i, fromID := range g.order {
				if fromID == targetID {
					continue
				}
				provides := contribution(g.factors[i], fromID, target, required)
				if len(provides) == 0 {
					continue
				}
				if len(provides) == len(required) {
					g.strong = append(g.strong, Edge{
						From: fromID, To: targetID, Kind: EdgeStrong,
						PathID: path.ID, Provides: provides,
					})
					continue
				}
				halves = append(halves, halfParent{id: fromID, provides: provides})
			}

			// Couple enumeration: minimal half-parent groups covering
			// the path, up to the configured size.
			couples := enumerateCouples(halves, required, o.maxCoupleSize, maxCouplesPerPath,
				func(h halfParent) []ecosys.FactorKind { return h.provides },
			)
			weakSeen := make(map[ecosys.AccountID]bool)
			for _, grp := range couples {
				members := make([]ecosys.AccountID, 0, len(grp))
				for _, h := range grp {
					members = append(members, h.id)
					if !weakSeen[h.id] {
						weakSeen[h.id] = true
						g.weak = append(g.weak, Edge{
							From: h.id, To: targetID, Kind: EdgeWeak,
							PathID: path.ID, Provides: h.provides,
						})
					}
				}
				g.couples = append(g.couples, CoupleGroup{
					Members: members, Target: targetID, PathID: path.ID,
				})
			}
		}
	}
	return g, nil
}

// takeoverPaths filters to paths granting account control.
func takeoverPaths(paths []ecosys.AuthPath) []ecosys.AuthPath {
	var out []ecosys.AuthPath
	for _, p := range paths {
		if p.Purpose == ecosys.PurposeSignIn || p.Purpose == ecosys.PurposeReset {
			out = append(out, p)
		}
	}
	return out
}

// missingFactors returns path factors not supplied by the attacker
// profile, in declaration order.
func missingFactors(path ecosys.AuthPath, ap ecosys.FactorSet) []ecosys.FactorKind {
	var out []ecosys.FactorKind
	seen := make(map[ecosys.FactorKind]bool)
	for _, f := range path.Factors {
		if ap.Has(f) || seen[f] {
			continue
		}
		seen[f] = true
		out = append(out, f)
	}
	return out
}

func hasUnphishable(factors []ecosys.FactorKind) bool {
	for _, f := range factors {
		if f.Unphishable() {
			return true
		}
	}
	return false
}

// contribution computes which of the required factors `from` can
// supply to `target`: exposure-derived factors, linked-account control
// when the target is bound to the provider, and email codes/links when
// the provider hosts the target's mailbox.
func contribution(fromFactors uint64, fromID ecosys.AccountID, target *Node, required []ecosys.FactorKind) []ecosys.FactorKind {
	var out []ecosys.FactorKind
	for _, f := range required {
		if supplies(fromFactors, fromID, target, f) {
			out = append(out, f)
		}
	}
	return out
}

// supplies reports whether `from`, whose exposures supply the factor
// mask fromFactors, supplies factor f to target.
func supplies(fromFactors uint64, fromID ecosys.AccountID, target *Node, f ecosys.FactorKind) bool {
	switch f {
	case ecosys.FactorLinkedAccount:
		return boundTo(target, fromID.Service)
	case ecosys.FactorEmailCode, ecosys.FactorEmailLink:
		return target.EmailProvider != "" && target.EmailProvider == fromID.Service
	}
	return fromFactors>>uint(f)&1 == 1
}

func boundTo(target *Node, service string) bool {
	for _, b := range target.BoundTo {
		if b == service {
			return true
		}
	}
	return false
}

// enumerateCouples finds minimal groups of halves (size 2..maxSize)
// whose contributions jointly cover required. Groups are minimal: no
// member's removal leaves coverage intact.
func enumerateCouples[H any](halves []H, required []ecosys.FactorKind, maxSize, maxGroups int, provides func(H) []ecosys.FactorKind) [][]H {
	if len(halves) < 2 || len(required) == 0 {
		return nil
	}
	reqIdx := make(map[ecosys.FactorKind]int, len(required))
	for i, f := range required {
		reqIdx[f] = i
	}
	full := uint64(1)<<uint(len(required)) - 1
	masks := make([]uint64, len(halves))
	for i, h := range halves {
		for _, f := range provides(h) {
			if idx, ok := reqIdx[f]; ok {
				masks[i] |= 1 << uint(idx)
			}
		}
	}

	var out [][]H
	var pick func(start int, chosen []int, acc uint64)
	pick = func(start int, chosen []int, acc uint64) {
		if len(out) >= maxGroups {
			return
		}
		if acc == full && len(chosen) >= 2 {
			// Minimality: every member must be necessary.
			for _, c := range chosen {
				rest := uint64(0)
				for _, d := range chosen {
					if d != c {
						rest |= masks[d]
					}
				}
				if rest == full {
					return
				}
			}
			grp := make([]H, 0, len(chosen))
			for _, c := range chosen {
				grp = append(grp, halves[c])
			}
			out = append(out, grp)
			return
		}
		if len(chosen) >= maxSize {
			return
		}
		for i := start; i < len(halves); i++ {
			if masks[i]&^acc == 0 {
				continue // contributes nothing new
			}
			pick(i+1, append(chosen, i), acc|masks[i])
		}
	}
	pick(0, nil, 0)
	return out
}

// --- queries ---

// Len returns the node count.
func (g *Graph) Len() int { return len(g.order) }

// AppendSuppliers appends to dst the node-order index (into Nodes) of
// every node whose compromise supplies factor f for target, in
// insertion order. It applies the same rules as edge construction:
// exposure-derived factors, SSO bindings and email hosting.
func (g *Graph) AppendSuppliers(dst []int32, target ecosys.AccountID, f ecosys.FactorKind) []int32 {
	tnode, ok := g.nodes[target]
	if !ok {
		return dst
	}
	for i, fromID := range g.order {
		if fromID != target && supplies(g.factors[i], fromID, tnode, f) {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

// HasStrongFor reports whether some single full-capacity parent covers
// target's path pathID.
func (g *Graph) HasStrongFor(target ecosys.AccountID, pathID string) bool {
	for _, e := range g.strong {
		if e.To == target && e.PathID == pathID {
			return true
		}
	}
	return false
}

// Nodes returns node IDs in insertion order (a fresh slice).
func (g *Graph) Nodes() []ecosys.AccountID {
	return append([]ecosys.AccountID(nil), g.order...)
}

// Node fetches a node.
func (g *Graph) Node(id ecosys.AccountID) (*Node, bool) {
	n, ok := g.nodes[id]
	return n, ok
}

// Profile returns a copy of the attacker profile the graph was built
// under.
func (g *Graph) Profile() ecosys.AttackerProfile { return g.ap.Clone() }

// IsFringe reports whether the account has a path satisfiable by the
// attacker profile alone (the red nodes of Fig 4).
func (g *Graph) IsFringe(id ecosys.AccountID) bool { return g.fringe[id] }

// FringeNodes returns all fringe accounts in insertion order.
func (g *Graph) FringeNodes() []ecosys.AccountID {
	var out []ecosys.AccountID
	for _, id := range g.order {
		if g.fringe[id] {
			out = append(out, id)
		}
	}
	return out
}

// InternalNodes returns non-fringe accounts (the blue nodes of Fig 4).
func (g *Graph) InternalNodes() []ecosys.AccountID {
	var out []ecosys.AccountID
	for _, id := range g.order {
		if !g.fringe[id] {
			out = append(out, id)
		}
	}
	return out
}

// StrongEdges returns all strong-directivity edges.
func (g *Graph) StrongEdges() []Edge { return append([]Edge(nil), g.strong...) }

// WeakEdges returns all weak-directivity edges.
func (g *Graph) WeakEdges() []Edge { return append([]Edge(nil), g.weak...) }

// Couples returns the couple groups targeting id (all groups when id
// is the zero AccountID).
func (g *Graph) Couples(id ecosys.AccountID) []CoupleGroup {
	var out []CoupleGroup
	for _, c := range g.couples {
		if (id == ecosys.AccountID{}) || c.Target == id {
			out = append(out, c)
		}
	}
	return out
}

// --- rendering ---

// DOT writes the Fig 4-style connection graph: fringe nodes red,
// internal nodes blue, strong edges solid, weak edges dashed.
func (g *Graph) DOT(w io.Writer) error {
	var b strings.Builder
	b.WriteString("digraph tdg {\n  rankdir=LR;\n  node [style=filled, fontname=\"Helvetica\"];\n")
	for _, id := range g.order {
		color := "lightblue"
		if g.fringe[id] {
			color = "salmon"
		}
		fmt.Fprintf(&b, "  %q [fillcolor=%s];\n", id.String(), color)
	}
	for _, e := range g.strong {
		fmt.Fprintf(&b, "  %q -> %q [color=black];\n", e.From.String(), e.To.String())
	}
	for _, e := range g.weak {
		fmt.Fprintf(&b, "  %q -> %q [style=dashed, color=gray];\n", e.From.String(), e.To.String())
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// DescribeNode renders the Fig 12 single-node structure: the
// credential-factor file (per path) and the personal-information file.
func (g *Graph) DescribeNode(id ecosys.AccountID) (string, error) {
	n, ok := g.nodes[id]
	if !ok {
		return "", fmt.Errorf("tdg: unknown node %s", id)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", id)
	b.WriteString("  credential factor file:\n")
	for _, p := range n.Paths {
		shorts := make([]string, 0, len(p.Factors))
		for _, f := range p.Factors {
			shorts = append(shorts, f.Short())
		}
		fmt.Fprintf(&b, "    %s [%s]: %s\n", p.ID, p.Purpose, strings.Join(shorts, " + "))
	}
	b.WriteString("  personal information file:\n")
	fields := n.Exposes.Sorted()
	names := make([]string, 0, len(fields))
	for _, f := range fields {
		names = append(names, f.String())
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "    %s\n", strings.Join(names, ", "))
	if len(n.BoundTo) > 0 {
		fmt.Fprintf(&b, "  bound to: %s\n", strings.Join(n.BoundTo, ", "))
	}
	return b.String(), nil
}
