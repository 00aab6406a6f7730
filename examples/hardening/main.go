// Hardening applies the paper's §VII.A countermeasures one at a time
// and shows how each shrinks the attack surface, ending with the
// built-in authentication push flow (Fig 8) running against a live
// hardened service.
package main

import (
	"fmt"
	"log"

	"github.com/actfort/actfort/internal/core"
	"github.com/actfort/actfort/internal/countermeasure"
	"github.com/actfort/actfort/internal/dataset"
	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/mask"
)

// summary measures cat under the baseline attacker and renders its web
// direct share and forward-closure victim count.
func summary(cat *ecosys.Catalog) string {
	engine, err := core.New(cat, ecosys.BaselineAttacker())
	if err != nil {
		log.Fatal(err)
	}
	m, err := engine.Measure()
	if err != nil {
		log.Fatal(err)
	}
	return fmt.Sprintf("web direct %.2f%%, closure victims %d", m.WebLayers.Pct(m.WebLayers.Direct), m.Victims)
}

func main() {
	cat, err := dataset.Default()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("baseline:             ", summary(cat))

	masked, err := countermeasure.ApplyUnifiedMasking(cat, mask.DefaultUnifiedStandard())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("+ unified masking:    ", summary(masked))

	mailHard, err := countermeasure.HardenEmailProviders(masked)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("+ hardened email:     ", summary(mailHard))

	full, err := countermeasure.AdoptBuiltinAuth(mailHard)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("+ built-in auth:      ", summary(full))

	// The Fig 8 push flow, end to end.
	fmt.Println("\nbuilt-in authentication (Fig 8):")
	server := countermeasure.NewAuthServer()
	device, err := server.Register("+8613900004321")
	if err != nil {
		log.Fatal(err)
	}
	reqID, err := server.LoginRequest("alipay", "+8613900004321")
	if err != nil {
		log.Fatal(err)
	}
	prompts, err := device.Prompts()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  device prompt: approve login to %s?\n", prompts[0].Service)
	if err := device.Authorize(server, reqID); err != nil {
		log.Fatal(err)
	}
	signal, err := server.Signal(reqID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  verification signal issued: %s...\n", signal[:8])
	fmt.Printf("  service verifies: %v (replay: %v)\n",
		server.VerifySignal("alipay", "+8613900004321", signal),
		server.VerifySignal("alipay", "+8613900004321", signal))
	fmt.Println("  nothing crossed the GSM air interface.")
}
