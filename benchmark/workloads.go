package main

import (
	"strconv"

	"ycsbt/internal/properties"
)

// shape names the stack a workload runs on.
type shape int

const (
	// shapeEmbedded: db=txnkv, txnkv.backend=memory — driver, db chain,
	// txn.Manager and a volatile kvstore in one address space.
	shapeEmbedded shape = iota
	// shapeFleetTxn: db=txnkv, txnkv.backend=cluster over three
	// cluster-mode kvserver stacks, negotiated wire frames.
	shapeFleetTxn
	// shapeSingleHTTP: db=rawhttp, rawhttp.wire=off against one
	// unclustered kvserver stack — the paper's REST testbed.
	shapeSingleHTTP
	// shapeFleetRouter: db=cluster (httpkv.Router) over the same
	// three-node fleet, no transactions.
	shapeFleetRouter
)

// spec is one workload: what runs, on which stack, and why.
type spec struct {
	name  string
	why   string
	shape shape
	// threads is the closed-loop client count: each YCSB client thread
	// waits for its reply before it sends again. The reference host has
	// two cores, so the core workloads run two. The closed economy runs
	// one: two threads on its hot accounts conflict, and about 3 in
	// 10 000 transactions abort — a different number in every run, and a
	// run's result line must report no failed operation.
	threads int
	// records loaded before the run phase; at least 5000 per client.
	records int64
	props   map[string]string
	// keepEvery thins retained spans on the traced trial (sums are
	// always complete); faster workloads keep fewer.
	keepEvery uint32
}

func (sp *spec) cew() bool   { return sp.shape == shapeEmbedded || sp.shape == shapeFleetTxn }
func (sp *spec) fleet() bool { return sp.shape == shapeFleetTxn || sp.shape == shapeFleetRouter }

// cewProps is the paper's Listing 2 closed economy: 10 000 accounts,
// 90 % read / 10 % read-modify-write, zipfian, one field.
var cewProps = map[string]string{
	"workload":                  "closedeconomy",
	"totalcash":                 "100000000",
	"readproportion":            "0.9",
	"readmodifywriteproportion": "0.1",
	"requestdistribution":       "zipfian",
	"fieldcount":                "1",
	"fieldlength":               "100",
}

var specs = []*spec{
	{
		name:    "cew_embedded",
		why:     "CEW on txnkv over a volatile in-process kvstore: no transport, so only driver, db chain, txn and engine gains show and a transport change must not move it",
		shape:   shapeEmbedded,
		threads: 1,
		records: 10000,
		props:   cewProps,
		// ~100k tx/s: keep 1 in 64 transactions' spans.
		keepEvery: 64,
	},
	{
		name:      "cew_fleet",
		why:       "CEW on txnkv over three cluster-mode kvserver stacks with on-disk WALs and wire frames: the full stack, where round trips dominate and engine time is a small share",
		shape:     shapeFleetTxn,
		threads:   1,
		records:   10000,
		props:     cewProps,
		keepEvery: 8,
	},
	{
		name:    "ycsb_a_http",
		why:     "Core workload A (50/50 read/update, zipfian, 1 KB records) as single-op REST with the wire off: the paper's Fig 4/5 path, bypassing txn and kvwire framing",
		shape:   shapeSingleHTTP,
		threads: 2,
		records: 20000,
		props: map[string]string{
			"workload":            "core",
			"readproportion":      "0.5",
			"updateproportion":    "0.5",
			"requestdistribution": "zipfian",
			"fieldcount":          "10",
			"fieldlength":         "100",
			// Reads verify their bytes against values derived from
			// key and field, so a wrong answer fails the run.
			"dataintegrity": "true",
		},
		keepEvery: 4,
	},
	{
		name:    "scan_fleet",
		why:     "Core workload E (95% scans of up to 100 records, 5% inserts) through the router over the three-node fleet: ranges not points, so merge, scan streams and engine over-fetch show only here",
		shape:   shapeFleetRouter,
		threads: 2,
		records: 20000,
		props: map[string]string{
			"workload":            "core",
			"readproportion":      "0",
			"updateproportion":    "0",
			"scanproportion":      "0.95",
			"insertproportion":    "0.05",
			"maxscanlength":       "100",
			"requestdistribution": "zipfian",
			"fieldcount":          "10",
			"fieldlength":         "100",
			"dataintegrity":       "true",
		},
		keepEvery: 1,
	},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// properties builds the run's property set: the workload's own plus
// seed, record count and thread count.
func (sp *spec) properties(seed, records int64, nthreads int) *properties.Properties {
	p := properties.FromMap(sp.props)
	p.Set("seed", strconv.FormatInt(seed, 10))
	p.Set("recordcount", strconv.FormatInt(records, 10))
	p.Set("threadcount", strconv.Itoa(nthreads))
	return p
}
