// Command rds-audit runs a FACT audit over a CSV dataset: it trains a
// classifier on the named target with the sensitive attribute excluded,
// evaluates all four FACT dimensions against a policy, and prints the
// Green/Amber/Red report, lineage, and model card.
//
// Usage:
//
//	rds-audit -data credit.csv -target approved \
//	          -sensitive group -protected B -reference A \
//	          [-mitigate none|reweigh|threshold] [-min-di 0.8] [-seed 1]
//
// With -demo, a synthetic biased credit dataset is generated instead of
// reading a file.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/responsible-data-science/rds/internal/core"
	"github.com/responsible-data-science/rds/internal/frame"
	"github.com/responsible-data-science/rds/internal/policy"
	"github.com/responsible-data-science/rds/internal/serve"
	"github.com/responsible-data-science/rds/internal/synth"
)

func main() {
	dataPath := flag.String("data", "", "CSV file with a header row")
	demo := flag.Bool("demo", false, "use a synthetic biased credit dataset instead of -data")
	spec := core.TrainSpec{}.WithDefaultColumns()
	flag.StringVar(&spec.Target, "target", spec.Target, "binary target column (1 = favourable)")
	flag.StringVar(&spec.Sensitive, "sensitive", spec.Sensitive, "sensitive attribute column")
	flag.StringVar(&spec.Protected, "protected", spec.Protected, "protected group value")
	flag.StringVar(&spec.Reference, "reference", spec.Reference, "reference group value")
	mitigate := flag.String("mitigate", "none", "mitigation: none | reweigh | threshold")
	pol := serve.DefaultPolicy()
	flag.Float64Var(&pol.MinDisparateImpact, "min-di", pol.MinDisparateImpact, "disparate-impact floor (four-fifths rule)")
	flag.Float64Var(&pol.MaxEqOppDifference, "max-eod", pol.MaxEqOppDifference, "equal-opportunity difference ceiling")
	seed := flag.Uint64("seed", 1, "pipeline seed")
	showLineage := flag.Bool("lineage", true, "print lineage and model card")
	flag.Parse()

	var data *frame.Frame
	var err error
	switch {
	case *demo:
		data, err = synth.Credit(synth.CreditConfig{N: 10000, Bias: 1.0, Seed: *seed})
	case *dataPath != "":
		var file *os.File
		file, err = os.Open(*dataPath)
		if err == nil {
			defer file.Close()
			data, err = frame.ReadCSV(file)
		}
	default:
		fmt.Fprintln(os.Stderr, "rds-audit: need -data FILE or -demo")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rds-audit:", err)
		os.Exit(1)
	}

	spec.Mitigation, err = core.ParseMitigation(*mitigate)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rds-audit:", err)
		os.Exit(2)
	}

	pipe, err := core.New(core.Config{
		Name:   "rds-audit",
		Policy: pol,
		Seed:   *seed,
		Actor:  "rds-audit",
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rds-audit:", err)
		os.Exit(1)
	}
	if err := pipe.Load("input", data); err != nil {
		fmt.Fprintln(os.Stderr, "rds-audit:", err)
		os.Exit(1)
	}
	model, err := pipe.Train(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rds-audit:", err)
		os.Exit(1)
	}
	report, err := pipe.Audit(model)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rds-audit:", err)
		os.Exit(1)
	}
	fmt.Print(report.Render())
	if *showLineage {
		fmt.Println("\nLineage:")
		fmt.Print(pipe.Lineage().Render())
		fmt.Println("\n" + model.Card.Render())
	}
	if report.Overall == policy.Red {
		os.Exit(3) // scriptable: red audits fail the build
	}
}
