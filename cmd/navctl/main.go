// Command navctl drives the navigation control plane of a live
// navserve: the separated navigational aspect, inspected and mutated
// over HTTP. The paper's one-line maintenance change — swap a context
// family's access structure — is one command against a running fleet:
//
//	navctl -addr http://museum:8080 -token $TOK context set-structure ByAuthor guided-tour
//
// Usage:
//
//	navctl [-addr URL] [-token T] [-retries N] <command> [args]
//
// Commands:
//
//	model                                print the live model's
//	                                     declaration artifact (the same
//	                                     SpecText the E8 experiment
//	                                     diffs)
//	contexts                             list resolved contexts
//	context get-structure FAMILY         print the family's structure
//	                                     spec as JSON
//	context set-structure FAMILY KIND    swap the structure to KIND
//	                                     (index, menu, guided-tour,
//	                                     indexed-guided-tour, or a
//	                                     circular- variant)
//	context set-structure FAMILY -spec F install the full structure
//	                                     spec read from JSON file F
//	                                     ("-" = stdin)
//	doc set ID attr=value [attr=value…]  edit a data document's
//	                                     attributes
//	stylesheet get                       print the installed stylesheet
//	stylesheet set FILE                  install a stylesheet from its
//	                                     XML file ("-" = stdin)
//	stylesheet clear                     restore the built-in
//	                                     presentation
//	graph                                dump the analytics transition
//	                                     graph as JSON
//	snapshot                             export the site snapshot into
//	                                     the server's store
//	adapt                                force one adaptation cycle
//	events [-n N]                        print the mutation trace (most
//	                                     recent model mutations with
//	                                     rebuild duration and
//	                                     invalidation blast radius),
//	                                     newest first
//	traces [-n N] [-slow]                print the request-trace ring
//	                                     (sampled and slow-captured
//	                                     request lifecycles with their
//	                                     per-phase breakdown), newest
//	                                     first; -slow keeps only traces
//	                                     over the server's slow
//	                                     threshold
//	metrics                              print the server's Prometheus
//	                                     text exposition (GET /metrics;
//	                                     works without a token)
//
// The token may also come from the NAVCTL_TOKEN environment variable;
// the flag wins when both are set. Mutations print the server's
// mutation report (affected contexts, dropped pages, new cache
// generation — the value that rotates the affected pages' ETags).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/client"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "navctl:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("navctl", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "navserve base URL")
	token := fs.String("token", "", "control-plane bearer token (or NAVCTL_TOKEN)")
	retries := fs.Int("retries", client.DefaultRetryPolicy.MaxAttempts,
		"total attempts for idempotent requests against a shedding or degraded server (1 = no retry; mutating POST/PATCH never retry)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tok := *token
	if tok == "" {
		tok = os.Getenv("NAVCTL_TOKEN")
	}
	policy := client.DefaultRetryPolicy
	policy.MaxAttempts = *retries
	c, err := client.New(*addr, tok, client.WithRetry(policy))
	if err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("no command (want model, contexts, context, doc, stylesheet, graph, snapshot, adapt, events, traces or metrics)")
	}
	ctx := context.Background()
	switch rest[0] {
	case "model":
		return cmdModel(ctx, c, out)
	case "contexts":
		return cmdContexts(ctx, c, out)
	case "context":
		return cmdContext(ctx, c, out, rest[1:])
	case "doc":
		return cmdDoc(ctx, c, out, rest[1:])
	case "stylesheet":
		return cmdStylesheet(ctx, c, out, rest[1:])
	case "graph":
		g, err := c.AnalyticsGraph(ctx)
		if err != nil {
			return err
		}
		return printJSON(out, g)
	case "snapshot":
		res, err := c.Snapshot(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "snapshot exported: %d documents into %s store (generation %d)\n",
			res.Documents, res.Store, res.CacheGeneration)
		return nil
	case "adapt":
		res, err := c.Adapt(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "adapt cycle %d: %d derived structures (generation %d)\n",
			res.AdaptGeneration, res.DerivedStructures, res.CacheGeneration)
		return nil
	case "events":
		return cmdEvents(ctx, c, out, rest[1:])
	case "traces":
		return cmdTraces(ctx, c, out, rest[1:])
	case "metrics":
		text, err := c.Metrics(ctx)
		if err != nil {
			return err
		}
		_, err = io.WriteString(out, text)
		return err
	}
	return fmt.Errorf("unknown command %q", rest[0])
}

// cmdModel prints the live declaration artifact — byte-identical to
// navigation.SpecText over the server's model, so an operator can diff
// it against the repository's authored spec.
func cmdModel(ctx context.Context, c *client.Client, out io.Writer) error {
	m, err := c.Model(ctx)
	if err != nil {
		return err
	}
	_, err = io.WriteString(out, m.SpecText)
	return err
}

func cmdContexts(ctx context.Context, c *client.Client, out io.Writer) error {
	list, err := c.Contexts(ctx)
	if err != nil {
		return err
	}
	sort.Slice(list, func(i, j int) bool { return list[i].Name < list[j].Name })
	for _, rc := range list {
		fmt.Fprintf(out, "%s\tfamily=%s members=%d entry=%s access=%s\n",
			rc.Name, rc.Family, rc.Members, rc.Entry, rc.Access)
	}
	return nil
}

func cmdContext(ctx context.Context, c *client.Client, out io.Writer, args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("context: want get-structure FAMILY or set-structure FAMILY KIND|-spec FILE")
	}
	verb, family := args[0], args[1]
	switch verb {
	case "get-structure":
		st, err := c.Structure(ctx, family)
		if err != nil {
			return err
		}
		return printJSON(out, st)
	case "set-structure":
		if len(args) < 3 {
			return fmt.Errorf("context set-structure: want KIND or -spec FILE")
		}
		var spec client.StructureSpec
		if args[2] == "-spec" {
			if len(args) < 4 {
				return fmt.Errorf("context set-structure -spec: want a JSON file (or - for stdin)")
			}
			raw, err := readInput(args[3])
			if err != nil {
				return err
			}
			// Strict, like the server: a typoed field in the spec file
			// must fail here, not silently install a different structure.
			dec := json.NewDecoder(bytes.NewReader(raw))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&spec); err != nil {
				return fmt.Errorf("parsing structure spec: %w", err)
			}
			if dec.More() {
				return fmt.Errorf("parsing structure spec: trailing content after the JSON value")
			}
		} else {
			spec.Kind = args[2]
		}
		res, err := c.SetStructure(ctx, family, spec)
		if err != nil {
			return err
		}
		return printMutation(out, res)
	}
	return fmt.Errorf("unknown context verb %q", verb)
}

func cmdDoc(ctx context.Context, c *client.Client, out io.Writer, args []string) error {
	if len(args) < 3 || args[0] != "set" {
		return fmt.Errorf("doc: want set ID attr=value [attr=value…]")
	}
	id := args[1]
	set := make(map[string]string, len(args)-2)
	for _, kv := range args[2:] {
		name, value, ok := strings.Cut(kv, "=")
		if !ok || name == "" {
			return fmt.Errorf("doc set: %q is not attr=value", kv)
		}
		set[name] = value
	}
	res, err := c.PatchDocument(ctx, id, set)
	if err != nil {
		return err
	}
	return printMutation(out, res)
}

func cmdStylesheet(ctx context.Context, c *client.Client, out io.Writer, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("stylesheet: want get, set FILE or clear")
	}
	switch args[0] {
	case "get":
		src, err := c.Stylesheet(ctx)
		if err != nil {
			return err
		}
		_, err = io.WriteString(out, src)
		return err
	case "set":
		if len(args) < 2 {
			return fmt.Errorf("stylesheet set: want an XML file (or - for stdin)")
		}
		raw, err := readInput(args[1])
		if err != nil {
			return err
		}
		res, err := c.SetStylesheet(ctx, string(raw))
		if err != nil {
			return err
		}
		return printMutation(out, res)
	case "clear":
		res, err := c.ClearStylesheet(ctx)
		if err != nil {
			return err
		}
		return printMutation(out, res)
	}
	return fmt.Errorf("unknown stylesheet verb %q", args[0])
}

// cmdEvents prints the server's mutation trace newest-first, one line
// per event — the operator's answer to "what changed the model and what
// did it cost".
func cmdEvents(ctx context.Context, c *client.Client, out io.Writer, args []string) error {
	fs := flag.NewFlagSet("events", flag.ContinueOnError)
	n := fs.Int("n", 0, "print at most N events (0 = the whole retained ring)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := c.Events(ctx, *n)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%d mutations traced, %d retained\n", res.Total, len(res.Events))
	for _, e := range res.Events {
		fmt.Fprintf(out, "#%d\t%s\t%s\t%s\t%.3fms\t%d pages dropped\tverdict=%s\tgeneration=%d\n",
			e.Seq, e.Time.Format("2006-01-02T15:04:05Z07:00"), e.Kind, e.Target,
			e.DurationSeconds*1000, e.PagesInvalidated, e.Verdict, e.CacheGeneration)
	}
	return nil
}

// cmdTraces prints the server's request-trace ring newest-first: one
// header line per trace (identity, route, status, total) and one
// indented line per phase — the operator's answer to "where did that
// slow request spend its time".
func cmdTraces(ctx context.Context, c *client.Client, out io.Writer, args []string) error {
	fs := flag.NewFlagSet("traces", flag.ContinueOnError)
	n := fs.Int("n", 0, "print at most N traces (0 = the whole retained ring)")
	slow := fs.Bool("slow", false, "only traces over the server's slow threshold")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := c.Traces(ctx, *n, *slow)
	if err != nil {
		return err
	}
	if !res.Enabled {
		fmt.Fprintln(out, "tracing disabled (start navserve with -trace)")
		return nil
	}
	fmt.Fprintf(out, "%d traces kept, %d shown\n", res.Total, len(res.Traces))
	for _, tr := range res.Traces {
		mark := ""
		if tr.Slow {
			mark = "\tSLOW"
		}
		fmt.Fprintf(out, "#%d\t%s\t%s %s\t%d\t%.3fms\ttrace=%s%s\n",
			tr.Seq, tr.Time.Format("2006-01-02T15:04:05Z07:00"), tr.Route, tr.Path,
			tr.Status, tr.DurationSeconds*1000, tr.TraceID, mark)
		for _, sp := range tr.Spans {
			fmt.Fprintf(out, "\t%s\t+%.3fms\t%.3fms\n",
				sp.Phase, float64(sp.StartNS)/1e6, float64(sp.DurationNS)/1e6)
		}
		if tr.TruncatedSpans > 0 {
			fmt.Fprintf(out, "\t(%d spans truncated)\n", tr.TruncatedSpans)
		}
	}
	return nil
}

// readInput reads a file argument, "-" meaning stdin.
func readInput(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

func printJSON(out io.Writer, v any) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// printMutation reports a write's outcome the way an operator reads it:
// what changed, how many pages dropped, and the generation whose move
// is what rotates the affected ETags.
func printMutation(out io.Writer, res *client.MutationResult) error {
	what := res.Family
	if what == "" {
		what = res.Document
	}
	fmt.Fprintf(out, "mutated %s (generation %d, %d cached pages dropped)\n",
		what, res.CacheGeneration, res.DroppedPages)
	if len(res.Contexts) > 0 {
		fmt.Fprintf(out, "affected contexts: %s\n", strings.Join(res.Contexts, ", "))
	}
	return nil
}
