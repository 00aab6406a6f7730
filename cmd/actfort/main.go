// Command actfort queries the analysis engine: the paper's
// measurement artifacts, attack plans against a target account, the
// forward-closure victim set, node descriptions, DOT export of the
// full Transformation Dependency Graph, and the §VII.A countermeasure
// evaluation.
//
// Usage:
//
//	actfort -measure                         # Fig 3, Table I, layers, domains, Fig 4 summary
//	actfort -fig4 fig4.dot                   # Fig 4 connection graph as DOT ('-' for stdout)
//	actfort -target alipay/mobile            # backward chain search
//	actfort -target alipay/mobile -plans 3   # several alternatives
//	actfort -victims                         # forward closure from AP
//	actfort -describe ctrip/web              # Fig 12 node structure
//	actfort -flow alipay/mobile              # recursive auth flow (§III.B)
//	actfort -dot graph.dot                   # full-ecosystem DOT
//	actfort -fortify                         # E13 before/after table
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/actfort/actfort/internal/authproc"
	"github.com/actfort/actfort/internal/core"
	"github.com/actfort/actfort/internal/dataset"
	"github.com/actfort/actfort/internal/ecosys"
)

func main() {
	var (
		target   = flag.String("target", "", "account to attack, as service/platform")
		plans    = flag.Int("plans", 1, "number of alternative plans to list")
		victims  = flag.Bool("victims", false, "compute the forward-closure victim set")
		describe = flag.String("describe", "", "describe one node (service/platform)")
		flow     = flag.String("flow", "", "render the recursive authentication flow of one node (service/platform)")
		dot      = flag.String("dot", "", "write the full TDG as DOT to this file")
		depth    = flag.Int("depth", 0, "max chain depth (0 = default)")
		measure  = flag.Bool("measure", false, "print Fig 3, Table I, the dependency-depth percentages, the per-domain breakdown and the Fig 4 summary")
		fig4     = flag.String("fig4", "", "write the 44-account Fig 4 connection graph as DOT to this file ('-' for stdout)")
		fortify  = flag.Bool("fortify", false, "print the E13 ecosystem before/after the §VII.A countermeasures")
	)
	flag.Parse()

	cat, err := dataset.Default()
	if err != nil {
		fatal(err)
	}
	engine, err := core.New(cat, ecosys.BaselineAttacker())
	if err != nil {
		fatal(err)
	}

	switch {
	case *measure || *fig4 != "":
		if err := printMeasure(cat, engine, *measure, *fig4); err != nil {
			fatal(err)
		}
	case *fortify:
		if err := printFortify(cat); err != nil {
			fatal(err)
		}
	case *target != "":
		id, err := parseAccount(*target)
		if err != nil {
			fatal(err)
		}
		found, err := engine.AttackPlans(id, *depth, *plans)
		if err != nil {
			fatal(err)
		}
		for i, p := range found {
			fmt.Printf("plan %d (depth %d): %s\n", i+1, p.Depth(), p)
			for _, step := range p.Steps {
				line := "  compromise " + step.Account.String() + " via " + step.PathID
				if len(step.Parents) > 0 {
					names := make([]string, 0, len(step.Parents))
					for _, par := range step.Parents {
						names = append(names, par.String())
					}
					line += " (needs " + strings.Join(names, " + ") + ")"
				}
				fmt.Println(line)
			}
		}
	case *victims:
		res, err := engine.Victims(nil)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("compromised %d accounts in %d rounds; %d survive\n",
			res.VictimCount(), len(res.Rounds), len(res.Survivors))
		for i, round := range res.Rounds {
			fmt.Printf("round %d: %d accounts\n", i+1, len(round))
		}
		if len(res.Survivors) > 0 {
			names := make([]string, 0, len(res.Survivors))
			for _, s := range res.Survivors {
				names = append(names, s.String())
			}
			fmt.Println("survivors:", strings.Join(names, ", "))
		}
	case *describe != "":
		id, err := parseAccount(*describe)
		if err != nil {
			fatal(err)
		}
		g, err := engine.Graph()
		if err != nil {
			fatal(err)
		}
		desc, err := g.DescribeNode(id)
		if err != nil {
			fatal(err)
		}
		fmt.Print(desc)
	case *flow != "":
		id, err := parseAccount(*flow)
		if err != nil {
			fatal(err)
		}
		pr, ok := cat.PresenceOf(id)
		if !ok {
			fatal(fmt.Errorf("unknown account %s", id))
		}
		fmt.Print(authproc.FlowTree(id.Service, pr))
	case *dot != "":
		g, err := engine.Graph()
		if err != nil {
			fatal(err)
		}
		if err := writeDOT(*dot, g.DOT); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func parseAccount(s string) (ecosys.AccountID, error) {
	parts := strings.SplitN(s, "/", 2)
	if len(parts) != 2 {
		return ecosys.AccountID{}, fmt.Errorf("want service/platform, got %q", s)
	}
	var platform ecosys.Platform
	switch parts[1] {
	case "web":
		platform = ecosys.PlatformWeb
	case "mobile":
		platform = ecosys.PlatformMobile
	default:
		return ecosys.AccountID{}, fmt.Errorf("unknown platform %q", parts[1])
	}
	return ecosys.AccountID{Service: parts[0], Platform: platform}, nil
}

// writeDOT writes a graph's DOT rendering to path and reports where it
// went.
func writeDOT(path string, dot func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := dot(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Println("DOT written to", path)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "actfort:", err)
	os.Exit(1)
}
