// Package catalog holds the database's logical metadata: tables, indexes
// and auxiliary objects (temp space, log), their sizes, and the object
// groups the DOT heuristic reasons about (paper §2.2, §3.2).
//
// A database instance is a set of objects O = {o1..oN}; a data layout
// L: O -> D maps each object to a storage class.
package catalog

import (
	"fmt"
	"sort"
	"sync"

	"dotprov/internal/types"
)

// ObjectID identifies a database object. IDs are dense and assigned by the
// catalog in creation order, so they can index slices.
type ObjectID uint32

// ObjectKind classifies database objects.
type ObjectKind uint8

// The object kinds: base tables and their indexes form placement groups
// (§3.2); temp space and the log are standalone auxiliary objects.
const (
	KindTable ObjectKind = iota
	KindIndex
	KindTemp // temporary/sort spill space
	KindLog  // write-ahead log
)

// String renders the kind as its wire name ("table", "index", ...).
func (k ObjectKind) String() string {
	switch k {
	case KindTable:
		return "table"
	case KindIndex:
		return "index"
	case KindTemp:
		return "temp"
	case KindLog:
		return "log"
	default:
		return fmt.Sprintf("ObjectKind(%d)", uint8(k))
	}
}

// Object is the unit of placement: something DOT can put on a storage class.
type Object struct {
	ID        ObjectID
	Name      string
	Kind      ObjectKind
	SizeBytes int64 // maintained by the engine as data is loaded
}

// Table is a base relation.
type Table struct {
	Object
	Schema     *types.Schema
	PrimaryKey []string // column names; empty means no PK index
	Indexes    []ObjectID
}

// Index is a secondary or primary-key index on a table.
type Index struct {
	Object
	TableID ObjectID
	Columns []string
	Unique  bool
}

// Catalog is the metadata store. The zero value is not usable; call New.
type Catalog struct {
	objects map[ObjectID]*Object
	tables  map[ObjectID]*Table
	indexes map[ObjectID]*Index
	byName  map[string]ObjectID
	nextID  ObjectID
	// groups caches the Groups() partition; DDL invalidates it. Group
	// enumeration sits on the move-scoring hot path, where rebuilding the
	// partition per optimization run is pure allocation. groupsMu guards
	// the cache: concurrent searches (a provisioning sweep's candidates)
	// share one catalog and may race to populate it.
	groupsMu sync.Mutex
	groups   []Group
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		objects: make(map[ObjectID]*Object),
		tables:  make(map[ObjectID]*Table),
		indexes: make(map[ObjectID]*Index),
		byName:  make(map[string]ObjectID),
		nextID:  1,
	}
}

func (c *Catalog) register(name string, kind ObjectKind) (*Object, error) {
	if _, dup := c.byName[name]; dup {
		return nil, fmt.Errorf("catalog: object %q already exists", name)
	}
	o := &Object{ID: c.nextID, Name: name, Kind: kind}
	c.nextID++
	c.objects[o.ID] = o
	c.byName[name] = o.ID
	// DDL invalidates the cached group partition.
	c.groupsMu.Lock()
	c.groups = nil
	c.groupsMu.Unlock()
	return o, nil
}

// CreateTable registers a new table.
func (c *Catalog) CreateTable(name string, schema *types.Schema, primaryKey []string) (*Table, error) {
	for _, col := range primaryKey {
		if schema.ColIndex(col) < 0 {
			return nil, fmt.Errorf("catalog: table %q: primary key column %q not in schema", name, col)
		}
	}
	o, err := c.register(name, KindTable)
	if err != nil {
		return nil, err
	}
	t := &Table{Object: *o, Schema: schema, PrimaryKey: primaryKey}
	c.tables[o.ID] = t
	return t, nil
}

// CreateIndex registers a new index on an existing table.
func (c *Catalog) CreateIndex(name string, tableID ObjectID, columns []string, unique bool) (*Index, error) {
	t, ok := c.tables[tableID]
	if !ok {
		return nil, fmt.Errorf("catalog: index %q: no such table id %d", name, tableID)
	}
	for _, col := range columns {
		if t.Schema.ColIndex(col) < 0 {
			return nil, fmt.Errorf("catalog: index %q: column %q not in table %q", name, col, t.Name)
		}
	}
	o, err := c.register(name, KindIndex)
	if err != nil {
		return nil, err
	}
	idx := &Index{Object: *o, TableID: tableID, Columns: append([]string(nil), columns...), Unique: unique}
	c.indexes[o.ID] = idx
	t.Indexes = append(t.Indexes, o.ID)
	return idx, nil
}

// CreateAux registers a temp-space or log object.
func (c *Catalog) CreateAux(name string, kind ObjectKind, size int64) (*Object, error) {
	if kind != KindTemp && kind != KindLog {
		return nil, fmt.Errorf("catalog: CreateAux kind must be temp or log, got %v", kind)
	}
	o, err := c.register(name, kind)
	if err != nil {
		return nil, err
	}
	o.SizeBytes = size
	return o, nil
}

// CreateStandalone registers a placement-only object of any kind: it takes
// part in layouts, groups (as a singleton) and sizing, but carries no
// table/index bookkeeping. Partitionings build their unit catalogs from
// standalone objects so each unit keeps its parent's kind (split layouts
// still see "index" units) while being placeable independently.
func (c *Catalog) CreateStandalone(name string, kind ObjectKind, size int64) (*Object, error) {
	o, err := c.register(name, kind)
	if err != nil {
		return nil, err
	}
	o.SizeBytes = size
	return o, nil
}

// Object returns the object with the given ID, or nil.
func (c *Catalog) Object(id ObjectID) *Object { return c.objects[id] }

// Table returns the table with the given ID, or nil.
func (c *Catalog) Table(id ObjectID) *Table { return c.tables[id] }

// Index returns the index with the given ID, or nil.
func (c *Catalog) Index(id ObjectID) *Index { return c.indexes[id] }

// Lookup returns the object with the given name, or nil.
func (c *Catalog) Lookup(name string) *Object {
	if id, ok := c.byName[name]; ok {
		return c.objects[id]
	}
	return nil
}

// TableByName returns the named table, or an error.
func (c *Catalog) TableByName(name string) (*Table, error) {
	o := c.Lookup(name)
	if o == nil || o.Kind != KindTable {
		return nil, fmt.Errorf("catalog: no table %q", name)
	}
	return c.tables[o.ID], nil
}

// IndexByName returns the named index, or an error.
func (c *Catalog) IndexByName(name string) (*Index, error) {
	o := c.Lookup(name)
	if o == nil || o.Kind != KindIndex {
		return nil, fmt.Errorf("catalog: no index %q", name)
	}
	return c.indexes[o.ID], nil
}

// SetSize updates an object's size (called by the engine after loading).
// The table/index views share the size through the catalog, so SetSize
// keeps them consistent.
func (c *Catalog) SetSize(id ObjectID, size int64) {
	if o := c.objects[id]; o != nil {
		o.SizeBytes = size
		if t := c.tables[id]; t != nil {
			t.SizeBytes = size
		}
		if ix := c.indexes[id]; ix != nil {
			ix.SizeBytes = size
		}
	}
}

// Objects returns all objects sorted by ID (deterministic iteration).
func (c *Catalog) Objects() []*Object {
	out := make([]*Object, 0, len(c.objects))
	for _, o := range c.objects {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Tables returns all tables sorted by ID.
func (c *Catalog) Tables() []*Table {
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Indexes returns all indexes sorted by ID.
func (c *Catalog) Indexes() []*Index {
	out := make([]*Index, 0, len(c.indexes))
	for _, ix := range c.indexes {
		out = append(out, ix)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TableIndexes returns the indexes of a table in creation order.
func (c *Catalog) TableIndexes(tableID ObjectID) []*Index {
	t := c.tables[tableID]
	if t == nil {
		return nil
	}
	out := make([]*Index, 0, len(t.Indexes))
	for _, id := range t.Indexes {
		out = append(out, c.indexes[id])
	}
	return out
}

// TotalSize returns the total bytes across all objects.
func (c *Catalog) TotalSize() int64 {
	var s int64
	for _, o := range c.objects {
		s += o.SizeBytes
	}
	return s
}

// Group is an object group (paper §3.2): a set of objects whose placements
// interact. The current grouping scheme puts a table together with its
// indexes; aux objects form singleton groups.
type Group struct {
	Objects []ObjectID // group vector g = (o1..oK), table first
}

// Size returns K, the number of objects in the group.
func (g Group) Size() int { return len(g.Objects) }

// Groups partitions the catalog's objects into object groups: one group per
// table (the table followed by its indexes, in creation order), and a
// singleton group per standalone object — temp/log auxiliaries and
// placement units of a partitioned catalog. Paper §3.2; singleton unit
// groups are what lets DOT move a hot extent without dragging its table.
//
// The partition is cached until the next DDL statement; callers must treat
// the returned slice and its Group vectors as read-only.
func (c *Catalog) Groups() []Group {
	c.groupsMu.Lock()
	cached := c.groups
	c.groupsMu.Unlock()
	if cached != nil {
		return cached
	}
	var out []Group
	for _, t := range c.Tables() {
		g := Group{Objects: append([]ObjectID{t.ID}, t.Indexes...)}
		out = append(out, g)
	}
	for _, o := range c.Objects() {
		if c.tables[o.ID] == nil && c.indexes[o.ID] == nil {
			out = append(out, Group{Objects: []ObjectID{o.ID}})
		}
	}
	c.groupsMu.Lock()
	c.groups = out
	c.groupsMu.Unlock()
	return out
}
