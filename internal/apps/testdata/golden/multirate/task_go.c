/* Task task_go: quasi-statically scheduled for source go. */
#include "multirate.data.h"

int Line;
int src_p0;
int BUF_Line[10]; int BUF_Line_r, BUF_Line_w;
int BUF_Eol;
int BUF_Ack;
int src_g;
int src_a;
int src_j;
int src_buf[10];
int snk_v;
int snk_e;

void task_go_init(void)
{
  Line = 0;
  src_p0 = 1;
  BUF_Line_r = 0; BUF_Line_w = 0;
  BUF_Eol = 0;
  BUF_Ack = 0;
}

void task_go_ISR(void)
{
  go:
  go();
  READ_DATA(go, &src_g, 1);
  for (src_j = 0; (src_j < 10); src_j++)
    src_buf[src_j] = (src_g + src_j);
  { int k_; for (k_ = 0; k_ < 10; k_++) { BUF_Line[BUF_Line_w] = src_buf[k_]; BUF_Line_w = (BUF_Line_w + 1) % 10; } }
  Line = Line + 10;
  src_p0 = src_p0 - 1;
  goto snk_t0;
  snk_t0:
  snk_v = BUF_Line[BUF_Line_r]; BUF_Line_r = (BUF_Line_r + 1) % 10;
  WRITE_DATA(out, (snk_v * snk_v), 1);
  /* deliver out to the environment */
  Line = Line - 1;
  goto snk_t6;
  snk_t6:
  if (Line == 0 && src_p0 == 1) {
    return;
  }
  else if (Line == 0 && src_p0 == 0) {
    goto src_t1;
  }
  else {
    goto snk_t0;
  }
  src_t1:
  BUF_Eol = 0;
  snk_e = BUF_Eol;
  BUF_Ack = 0;
  src_a = BUF_Ack;
  src_p0 = src_p0 + 1;
  goto snk_t6;
}
