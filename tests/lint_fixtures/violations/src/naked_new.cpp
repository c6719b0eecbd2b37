// Fixture: naked-new — manual new/delete.

namespace mkos::fixtures {

struct Node {
  int value = 0;
};

int churn() {
  Node* n = new Node{42};
  const int v = n->value;
  delete n;
  return v;
}

}  // namespace mkos::fixtures
