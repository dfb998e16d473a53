// Command navbench regenerates the paper's figures and the quantified
// claims as experiment output — the CLI front end of
// internal/experiments.
//
// Usage:
//
//	navbench            # run every experiment
//	navbench -exp e5    # just the Figure 4 reproduction
//	navbench -list      # list experiment ids and titles
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "navbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("navbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment id (e1..e13) or 'all'")
	list := fs.Bool("list", false, "list experiments and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return nil
	}

	var selected []experiments.Experiment
	if *exp == "all" {
		selected = experiments.All()
	} else {
		e, ok := experiments.ByID(*exp)
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", *exp)
		}
		selected = []experiments.Experiment{e}
	}

	for _, e := range selected {
		fmt.Printf("==== %s: %s ====\n", e.ID, e.Title)
		out, err := e.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Println(strings.TrimRight(out, "\n"))
		fmt.Println()
	}
	return nil
}
