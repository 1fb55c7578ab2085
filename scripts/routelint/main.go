// Command routelint keeps the API reference honest: every route the server
// actually registers (serve.Routes) must appear in the operator
// documentation. Routes
// are compiled facts and docs are prose, so this is the only place the two
// can be held together; CI runs it so a new endpoint cannot merge
// undocumented.
//
//	go run ./scripts/routelint [OPERATIONS.md]
//
// Violations print one line each and the exit status is 1 when any exist.
package main

import (
	"fmt"
	"os"
	"strings"

	"dotprov/internal/serve"
)

func main() {
	doc := "OPERATIONS.md"
	if len(os.Args) > 1 {
		doc = os.Args[1]
	}
	b, err := os.ReadFile(doc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "routelint: %v\n", err)
		os.Exit(2)
	}
	text := string(b)
	bad := 0
	routes := serve.Routes()
	if len(routes) == 0 {
		fmt.Fprintln(os.Stderr, "routelint: serve.Routes() is empty — route table moved?")
		os.Exit(2)
	}
	for _, rt := range routes {
		if !strings.Contains(text, rt.Path) {
			fmt.Printf("routelint: route %s %s is registered but not documented in %s\n", rt.Method, rt.Path, doc)
			bad++
		}
	}
	if bad > 0 {
		os.Exit(1)
	}
	fmt.Printf("routelint OK: %d routes all documented in %s\n", len(routes), doc)
}
