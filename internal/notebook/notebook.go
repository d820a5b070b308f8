// Package notebook implements the Beaker-style hybrid notebook/chat
// environment PalimpChat is hosted in (paper §2.3): cells that mix chat
// messages, generated code, and outputs; "comprehensive state management
// that allows users to restore previous notebook states"; and export of a
// Jupyter-like JSON document containing "all inputs and generated snippets
// of code".
package notebook

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"
)

// CellType discriminates notebook cells.
type CellType string

// Cell types.
const (
	// Markdown is prose (chat narration).
	Markdown CellType = "markdown"
	// Code is a generated or user-written code snippet.
	Code CellType = "code"
	// ChatUser is a user chat message.
	ChatUser CellType = "chat_user"
	// ChatAgent is an agent chat reply.
	ChatAgent CellType = "chat_agent"
)

// Cell is one notebook entry.
type Cell struct {
	// ID is the stable cell identifier.
	ID int `json:"id"`
	// Type is the cell type.
	Type CellType `json:"cell_type"`
	// Source is the cell content.
	Source string `json:"source"`
	// Output is the cell's execution output (code cells).
	Output string `json:"output,omitempty"`
	// ExecutionCount orders executed code cells (0 = never executed).
	ExecutionCount int `json:"execution_count,omitempty"`
}

// Notebook is an append-mostly cell list with snapshot/restore.
type Notebook struct {
	cells     []Cell
	nextID    int
	execCount int
	snapshots []snapshot
}

type snapshot struct {
	label     string
	takenAt   time.Time
	cells     []Cell
	nextID    int
	execCount int
}

// New returns an empty notebook.
func New() *Notebook { return &Notebook{nextID: 1} }

// Len returns the number of cells.
func (n *Notebook) Len() int { return len(n.cells) }

// Cells returns a copy of the cells in order.
func (n *Notebook) Cells() []Cell {
	out := make([]Cell, len(n.cells))
	copy(out, n.cells)
	return out
}

// Cell returns the cell with the given id.
func (n *Notebook) Cell(id int) (Cell, error) {
	for _, c := range n.cells {
		if c.ID == id {
			return c, nil
		}
	}
	return Cell{}, fmt.Errorf("notebook: no cell %d", id)
}

func (n *Notebook) add(t CellType, source string) int {
	id := n.nextID
	n.nextID++
	n.cells = append(n.cells, Cell{ID: id, Type: t, Source: source})
	return id
}

// AddChatUser appends a user chat message cell.
func (n *Notebook) AddChatUser(text string) int { return n.add(ChatUser, text) }

// AddChatAgent appends an agent reply cell.
func (n *Notebook) AddChatAgent(text string) int { return n.add(ChatAgent, text) }

// AddCode appends a code cell.
func (n *Notebook) AddCode(code string) int { return n.add(Code, code) }

// SetOutput records execution output on a code cell and stamps its
// execution count.
func (n *Notebook) SetOutput(id int, output string) error {
	for i := range n.cells {
		if n.cells[i].ID == id {
			if n.cells[i].Type != Code {
				return fmt.Errorf("notebook: cell %d is %s, not code", id, n.cells[i].Type)
			}
			n.execCount++
			n.cells[i].Output = output
			n.cells[i].ExecutionCount = n.execCount
			return nil
		}
	}
	return fmt.Errorf("notebook: no cell %d", id)
}

// Snapshot saves the current state under a label and returns the snapshot
// index.
func (n *Notebook) Snapshot(label string) int {
	cells := make([]Cell, len(n.cells))
	copy(cells, n.cells)
	n.snapshots = append(n.snapshots, snapshot{
		label: label, takenAt: time.Now(),
		cells: cells, nextID: n.nextID, execCount: n.execCount,
	})
	return len(n.snapshots) - 1
}

// Snapshots lists snapshot labels in order.
func (n *Notebook) Snapshots() []string {
	out := make([]string, len(n.snapshots))
	for i, s := range n.snapshots {
		out[i] = s.label
	}
	return out
}

// Restore rewinds the notebook to snapshot idx. Later snapshots stay
// available (restoring forward again is allowed).
func (n *Notebook) Restore(idx int) error {
	if idx < 0 || idx >= len(n.snapshots) {
		return fmt.Errorf("notebook: no snapshot %d (have %d)", idx, len(n.snapshots))
	}
	s := n.snapshots[idx]
	n.cells = make([]Cell, len(s.cells))
	copy(n.cells, s.cells)
	n.nextID = s.nextID
	n.execCount = s.execCount
	return nil
}

// ipynb is the exported JSON document shape (a compact ipynb dialect).
type ipynb struct {
	NBFormat int            `json:"nbformat"`
	Metadata map[string]any `json:"metadata"`
	Cells    []ipynbCell    `json:"cells"`
}

type ipynbCell struct {
	CellType       string   `json:"cell_type"`
	Source         []string `json:"source"`
	Outputs        []string `json:"outputs,omitempty"`
	ExecutionCount int      `json:"execution_count,omitempty"`
}

// ExportJSON renders the notebook as a Jupyter-like JSON document. Chat
// cells export as markdown with a speaker prefix.
func (n *Notebook) ExportJSON() ([]byte, error) {
	doc := ipynb{
		NBFormat: 4,
		Metadata: map[string]any{"generator": "palimpchat"},
	}
	for _, c := range n.cells {
		ic := ipynbCell{Source: splitLines(c.Source)}
		switch c.Type {
		case Code:
			ic.CellType = "code"
			if c.Output != "" {
				ic.Outputs = splitLines(c.Output)
			}
			ic.ExecutionCount = c.ExecutionCount
		case ChatUser:
			ic.CellType = "markdown"
			ic.Source = splitLines("**User:** " + c.Source)
		case ChatAgent:
			ic.CellType = "markdown"
			ic.Source = splitLines("**PalimpChat:** " + c.Source)
		default:
			ic.CellType = "markdown"
		}
		doc.Cells = append(doc.Cells, ic)
	}
	return json.MarshalIndent(doc, "", "  ")
}

func splitLines(s string) []string {
	if s == "" {
		return nil
	}
	lines := strings.SplitAfter(s, "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	return lines
}

// Render prints the notebook as plain text for terminal display.
func (n *Notebook) Render() string {
	var b strings.Builder
	for _, c := range n.cells {
		switch c.Type {
		case ChatUser:
			fmt.Fprintf(&b, "[%d] user> %s\n", c.ID, c.Source)
		case ChatAgent:
			fmt.Fprintf(&b, "[%d] chat> %s\n", c.ID, indent(c.Source, "      "))
		case Code:
			fmt.Fprintf(&b, "[%d] code:\n%s\n", c.ID, indent(c.Source, "    "))
			if c.Output != "" {
				fmt.Fprintf(&b, "    out[%d]:\n%s\n", c.ExecutionCount, indent(c.Output, "    "))
			}
		default:
			fmt.Fprintf(&b, "[%d] %s\n", c.ID, c.Source)
		}
	}
	return b.String()
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := 1; i < len(lines); i++ {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n")
}
