// Command benchjson turns `go test -bench` transcripts into the JSON
// arrays CI keeps as benchmark artifacts: one object per result line,
// with the benchmark's name (GOMAXPROCS suffix dropped) and one field
// per requested unit, null where the line does not report it.
//
//	go test -run=^$ -bench . ./internal/mh | tee BENCH_mh.txt
//	benchjson BENCH_mh.txt > BENCH_mh.json
//	benchjson -units 'ns/op=ns_per_op,speedup=speedup' BENCH_maximize.txt
//
// With no file arguments it reads standard input.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// column is one output field: the value a result line prints before unit.
type column struct {
	unit, field string
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	units := fs.String("units", "ns/op=ns_per_op,B/op=bytes_per_op,allocs/op=allocs_per_op",
		"comma-separated unit=field pairs, in output order")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var cols []column
	for _, pair := range strings.Split(*units, ",") {
		unit, field, ok := strings.Cut(pair, "=")
		if !ok || unit == "" || field == "" {
			return fmt.Errorf("-units: %q is not unit=field", pair)
		}
		cols = append(cols, column{unit, field})
	}
	var rows []string
	read := func(name string, r io.Reader) error {
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			row, ok, err := result(sc.Text(), cols)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if ok {
				rows = append(rows, row)
			}
		}
		return sc.Err()
	}
	if fs.NArg() == 0 {
		if err := read("stdin", stdin); err != nil {
			return err
		}
	}
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		err = read(path, f)
		f.Close()
		if err != nil {
			return err
		}
	}
	if len(rows) == 0 {
		_, err := fmt.Fprintln(stdout, "[]")
		return err
	}
	_, err := fmt.Fprintf(stdout, "[\n%s\n]\n", strings.Join(rows, ",\n"))
	return err
}

// result renders one benchmark result line as a JSON object, reporting
// false for any other line. A result line is a Benchmark name, an
// iteration count, then value-unit pairs; a name printed alone (before a
// benchmark's log output) is not one.
func result(line string, cols []column) (string, bool, error) {
	f := strings.Fields(line)
	if len(f) < 2 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", false, nil
	}
	if _, err := strconv.ParseUint(f[1], 10, 64); err != nil {
		return "", false, nil
	}
	name := f[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 && i+1 < len(name) && strings.Trim(name[i+1:], "0123456789") == "" {
		name = name[:i]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  {\"name\": %s", jsonString(name))
	for _, c := range cols {
		val := "null"
		for i := 2; i+1 < len(f); i++ {
			if f[i+1] == c.unit {
				if _, err := strconv.ParseFloat(f[i], 64); err != nil || !json.Valid([]byte(f[i])) {
					return "", false, fmt.Errorf("%s: %s value %q is not a JSON number", name, c.unit, f[i])
				}
				val = f[i]
			}
		}
		fmt.Fprintf(&b, ", %s: %s", jsonString(c.field), val)
	}
	b.WriteString("}")
	return b.String(), true, nil
}

// jsonString renders s as a JSON string.
func jsonString(s string) string {
	out, _ := json.Marshal(s) // a string always marshals
	return string(out)
}
